"""Exact symbolic arithmetic kernel.

Scalars live in the field of multivariate rational functions over Q,
optionally extended by a single square root and by logarithm atoms that
occur linearly.  Every expression has a canonical normal form

    a + b*sqrt(s) + sum_i (c_i + d_i*sqrt(s)) * ln(t_i)

where a, b, c_i, d_i are GCD-reduced polynomial fractions, s is a
canonical square-free radicand and the ln arguments t_i are canonical
rational functions.  Zero testing is a syntactic check on that form;
logarithm atoms and unevaluated univariate function atoms (with formal
derivative symbols such as gamma', gamma'') are treated as algebraically
independent.

Normalization reads the tree as it is and never rewrites it.  One walk
(_scan) finds zoo, oo and nan, the logarithm nodes, the square roots,
the outermost function atoms and the symbols, and it alone refuses a
logarithm or radical inside a logarithm's argument, a radicand or a
function atom's argument.  Rational-function cancellation, the
reduction modulo t^2 = s of the root generator t and the split into
components then run in sympy's sparse FracField/PolyRing over QQ in lex
order.  Each function atom is a generator itself, sorted by its text;
each log node stands for the generator of its canonical argument; and
each square root stands for its value stem or stem*t, computed once per
root.  The tree enters that field through _field_value, which keeps
each node as a polynomial times monic bases to signed powers: a sum of
monomials is read straight into the ring with each generator's least
exponent as a base, and other sums and products are ring arithmetic
that keeps common factors and denominators factored, as sympy.together
would.  Denominator bases are divided out exactly where they divide,
and a single GCD cancel at the end leaves the value in lowest terms; a
value with no denominator left only has its coefficient denominators
cleared.  A denominator c*(a + b*t), with c = gcd free of t, is
rationalized by conjugating a + b*t alone.  Each component is converted
back to an expanded sympy numerator and denominator.  An Expr builds
that sympy side on first read: its tree, its normal form and its
canonical tree.  One that carries a value of diffgeo's factored algebra
decides is_zero on the value's numerator and exports its normal form
only when something reads it.  Square-free
decomposition of radicands still goes through sympy.sqf_list, memoized
per radicand.  The grammar, the normal form and the decision procedures
here are self-contained.

Differentiation builds no derivative tree and normalizes none.  diff and
total_x_derivative are one derivation D of that ring, fixed by its value
on generators: D(v) = 1 for the partial derivative in v; D(x) = 1,
D(u) = u_x and D(u_x) = u_xx for the total x-derivative; and
D(f^(k)(arg)) = f^(k+1)(arg) * D(arg) on function atoms in both.  D acts
on the operand's normal form part by part: a rational part n/d by the
quotient rule (D(n)*d - n*D(d))/d^2, a root part b*sqrt(s) adds
b*D(s)/(2*s) to itself, and a log part c*ln(L) adds c*D(L)/L to the
log-free part with the same root.  The terms of each output component are
summed and brought to lowest terms as _field_value does, with one cancel,
and emitted as _normalize emits components, so the derivative carries its
normal form and canonical tree.  An operand free of every symbol D moves
has derivative 0 at once; other derivatives are memoized per normal form.

Integration also starts from the normal form.  antiderivative integrates
each part's coefficient num/den in v by partial fractions over K[v], K the
rational functions in the other symbols: one division gives the
polynomial part and one factor_list of den over Q its factors, where a
factor of degree > 1 in v raises NotIntegrableError.  At the root r of a
linear factor f^k, num/den = (v - r)^-k * p/q, and the first k Taylor
coefficients of p/q at r, by synthetic division, give the principal part.
A simple pole gives ln(f) with f as factor_list returns it, so log atoms
keep that form; higher poles sum to one fraction over prod f^(k-1).

With probes on, an oracle cross-checks every zero test by evaluating the
sympy tree alone, with no normal-form code, at seeded rational points: a
batch of points is one walk of the tree's DAG, each node a column of
values in GF(p), p = 2^61 - 1.  sqrt(r) for r in Q is c*sqrt(s), s an
integer naming r's square class (principal branch), and ln(a) for a > 0 is
sum e*ln(q) over the prime powers q^e of a, each ln(q) a formal generator
(Baker 1966).  A nonzero rational function of degree d vanishes at a
random point with probability at most d/p (Schwartz 1980).  The normal
form and the verdict are pure functions of the tree (sympy trees hash and
compare structurally), memoized process-wide in bounded caches; the
points are seeded from the tree.  Every zero test counts in
probe_report(), and each that meets a disagreement records it.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import math
import operator
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import CoercionFailed
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement, PolyRing

__all__ = [
    "Context",
    "Expr",
    "ParseError",
    "UnknownSymbolError",
    "NormalizationError",
    "MultipleRadicandsError",
    "NonlinearLogarithmError",
    "NotIntegrableError",
    "JetOrderError",
    "parse",
    "diff",
    "total_x_derivative",
    "is_zero",
    "antiderivative",
    "substitute",
    "render",
    "sqrt",
    "ln",
    "set_probe_points",
    "probe_report",
    "reset_probe_state",
]


class ParseError(ValueError):
    """Malformed expression text; ``position`` is the 1-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    """Identifier not declared in the context."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown symbol '{name}'", position)
        self.name = name


class NormalizationError(ValueError):
    pass


class MultipleRadicandsError(NormalizationError):
    """More than one distinct radicand survives normalization."""


class NonlinearLogarithmError(NormalizationError):
    """Logarithm atoms occur non-linearly (products, powers or quotients)."""


class NotIntegrableError(ValueError):
    """Antiderivative outside the rational-plus-simple-poles class."""


class JetOrderError(ValueError):
    """Total x-derivative applied to an expression with second-order jets."""


# ---------------------------------------------------------------------------
# Context


class FunctionAtom:
    """Unevaluated univariate function of a declared argument expression.

    Derivatives are formal: order k is the applied symbol name + k primes,
    e.g. gamma, gamma', gamma''.  Orders are generated on demand and carry
    no evaluation rules beyond the chain rule used by :func:`diff`.
    """

    def __init__(self, name: str, arg: sp.Expr):
        self.name = name
        self.arg = arg

    def applied(self, order: int) -> sp.Expr:
        return sp.Function(self.name + "'" * order)(self.arg)

    def __repr__(self):
        return f"FunctionAtom({self.name}({self.arg}))"


class Context:
    """Declares field variables with their jets, independent variables,
    parameters with nonzero assumptions, and function atoms given as
    (name, argument text) pairs.

    Immutable after construction; extension returns a new context that
    shares all symbol objects with the original.
    """

    def __init__(
        self,
        fields: Sequence[str],
        independents: Sequence[str] = ("x", "t"),
        parameters: Sequence[str] = (),
        functions: Sequence[tuple[str, str]] = (),
        assume_nonzero: Sequence[str] = (),
    ):
        self.fields = tuple(fields)
        self.independents = tuple(independents)
        self.parameters = tuple(parameters)
        self.n = len(self.fields)

        names: dict[str, str] = {}

        def declare(name: str, kind: str) -> sp.Symbol:
            if not name or not (name[0].isalpha()):
                raise ValueError(f"invalid symbol name {name!r}")
            if name in names:
                raise ValueError(f"duplicate symbol name {name!r}")
            names[name] = kind
            return sp.Symbol(name)

        self._field_syms = tuple(declare(f, "field") for f in self.fields)
        self._indep_syms = tuple(declare(v, "independent") for v in self.independents)
        self._param_syms = tuple(declare(p, "parameter") for p in self.parameters)
        self._jet1_syms = tuple(declare(f + "_x", "jet1") for f in self.fields)
        self._jet2_syms = tuple(declare(f + "_xx", "jet2") for f in self.fields)
        self._kinds = names

        self._atoms: dict[str, FunctionAtom] = {}
        for fname, arg_text in functions:
            if fname in names or fname in self._atoms:
                raise ValueError(f"duplicate symbol name {fname!r}")
            arg = self._parse_sympy(arg_text)
            if arg.atoms(sp.log) or any(
                isinstance(p.exp, sp.Rational) and p.exp.q != 1
                for p in arg.atoms(sp.Pow)
            ):
                raise ValueError(
                    f"function atom argument must be rational: {arg_text!r}"
                )
            self._atoms[fname] = FunctionAtom(fname, arg)

        self.assumptions: tuple[Expr, ...] = tuple(
            self.parse(text) for text in assume_nonzero
        )

    # -- symbol lookup ------------------------------------------------

    def sym(self, name: str) -> sp.Symbol:
        if name not in self._kinds:
            raise KeyError(f"symbol {name!r} not declared")
        return sp.Symbol(name)

    def kind(self, name: str) -> str | None:
        return self._kinds.get(name)

    def has(self, name: str) -> bool:
        return name in self._kinds or self._base_atom(name) is not None

    def _base_atom(self, name: str) -> FunctionAtom | None:
        base = name.rstrip("'")
        return self._atoms.get(base)

    def atom(self, name: str) -> FunctionAtom:
        fa = self._base_atom(name)
        if fa is None:
            raise KeyError(f"function atom {name!r} not declared")
        return fa

    @property
    def field_syms(self) -> tuple[sp.Symbol, ...]:
        return self._field_syms

    @property
    def jet1_syms(self) -> tuple[sp.Symbol, ...]:
        return self._jet1_syms

    @property
    def jet2_syms(self) -> tuple[sp.Symbol, ...]:
        return self._jet2_syms

    @property
    def x(self) -> sp.Symbol:
        return sp.Symbol(self.independents[0])

    # -- construction helpers ------------------------------------------

    def number(self, value) -> "Expr":
        if isinstance(value, Fraction):
            value = sp.Rational(value.numerator, value.denominator)
        return Expr(self, sp.Rational(value))

    def var(self, name: str) -> "Expr":
        return Expr(self, self.sym(name))

    def parse(self, text: str) -> "Expr":
        return parse(text, self)

    def _parse_sympy(self, text: str) -> sp.Expr:
        return _Parser(text, self).parse()

    def extend(
        self,
        parameters: Sequence[str] = (),
        assume_nonzero: Sequence[str] = (),
    ) -> "Context":
        """New context with extra parameters, sharing all existing symbols."""
        for p in parameters:
            if self.has(p):
                raise ValueError(f"duplicate symbol name {p!r}")
        ctx = Context(
            fields=self.fields,
            independents=self.independents,
            parameters=self.parameters + tuple(parameters),
        )
        # function atoms carry parsed arguments; copy instead of reparsing
        ctx._atoms = dict(self._atoms)
        ctx.assumptions = self.assumptions + tuple(
            ctx.parse(text) for text in assume_nonzero
        )
        return ctx

    def subsumes(self, other: "Context") -> bool:
        if other is self:
            return True
        return (
            set(other._kinds) <= set(self._kinds)
            and set(other._atoms) <= set(self._atoms)
        )

    def classify_atom(self, applied: sp.Expr) -> tuple[FunctionAtom, int] | None:
        """Map an AppliedUndef node back to (family, derivative order)."""
        if not isinstance(applied, AppliedUndef):
            return None
        fname = applied.func.__name__
        base = fname.rstrip("'")
        fa = self._atoms.get(base)
        if fa is None:
            return None
        return fa, len(fname) - len(base)

    def __repr__(self):
        return f"Context(fields={self.fields}, parameters={self.parameters})"


def _join(a: Context, b: Context) -> Context:
    if a.subsumes(b):
        return a
    if b.subsumes(a):
        return b
    raise ValueError("expressions from incompatible contexts")


# ---------------------------------------------------------------------------
# Normal form


@dataclass(frozen=True)
class _NormalForm:
    """Canonical decomposition: parts maps (log_arg|None, radical?) to a
    GCD-reduced fraction (num, den) of expanded polynomials."""

    radicand: sp.Expr | None
    parts: tuple[tuple[tuple[sp.Expr | None, bool], tuple[sp.Expr, sp.Expr]], ...]

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def rebuild(self) -> sp.Expr:
        """The canonical tree, built on the first call."""
        return self._tree

    @functools.cached_property
    def _tree(self) -> sp.Expr:
        total = sp.Integer(0)
        for (log_arg, has_rad), (num, den) in self.parts:
            term = num / den
            if has_rad:
                term = term * sp.sqrt(self.radicand)
            if log_arg is not None:
                term = term * sp.log(log_arg)
            total += term
        return total


def _split_square(m: int) -> tuple[int, int]:
    """m = a^2 * b with b square-free; returns (a, b)."""
    a = b = 1
    for p, e in sp.factorint(m).items():
        a *= p ** (e // 2)
        b *= p ** (e % 2)
    return a, b


@functools.lru_cache(maxsize=256)
def _canonical_radicand(r: sp.Expr) -> tuple[sp.Expr, sp.Expr]:
    """Write sqrt(r) = coeff * sqrt(core) with core a canonical square-free
    polynomial; returns (coeff, core).  Memoized: one normalization meets
    the same radicand in every square root it holds."""
    num, den = sp.fraction(sp.cancel(r))
    poly = sp.expand(num * den)
    if poly == 0:
        return sp.Integer(0), sp.Integer(0)
    content, factors = sp.sqf_list(poly)
    core = sp.Integer(1)
    outside = sp.Integer(1)
    for base, exp in factors:
        outside *= base ** (exp // 2)
        if exp % 2:
            core *= base
    content = sp.Rational(content)
    sign = 1 if content > 0 else -1
    an, bn = _split_square(abs(content).p)
    ad, bd = _split_square(abs(content).q)
    coeff = outside * sp.Rational(an, ad * bd)
    core = sp.expand(core * sign * bn * bd)
    return coeff / den, core


# The generator standing for the adjoined square root inside _normalize,
# as ln#0, ln#1, ... stand for the logarithm atoms.  Their names are not
# identifiers, so no declared symbol can collide with them; being fixed,
# they let sympy reuse its cached polynomial rings across calls.
_RADICAL = sp.Symbol("sqrt#")


def _sympy_fraction(p: PolyElement, q: PolyElement) -> tuple[sp.Expr, sp.Expr]:
    """(num, den) of p/q exactly as sympy.fraction(sympy.cancel(p/q)) with
    both parts expanded: integer coefficients without a common factor, a
    positive leading denominator coefficient, and a rational constant
    denominator distributed over a numerator with several terms."""
    coeffs = list(itertools.chain(p.itercoeffs(), q.itercoeffs()))
    scale = math.lcm(*(c.denominator for c in coeffs))
    common = math.gcd(*(c.numerator * (scale // c.denominator) for c in coeffs))
    factor = QQ(scale, common)
    if q.LC < 0:
        factor = -factor
    p = p.mul_ground(factor)
    q = q.mul_ground(factor)
    if q.is_ground and len(p) > 1:
        p, q = p.quo_ground(q.LC), q.ring.one
    return p.as_expr(), q.as_expr()


def _exact_quotient(n: PolyElement, b: PolyElement) -> PolyElement | None:
    """n / b if the nonconstant b divides n, else None.  Heap division in
    lex order (Monagan and Pearce, CASC 2007) on negated monomials: the
    products of the quotient terms with b's tail wait in a heap, so no step
    rescans the dividend.  The first term that b's leading monomial does
    not divide ends it: {b} is a Groebner basis, so no later step cancels
    a remainder term.  Two necessary conditions end most failing calls
    first: b's lex-last monomial divides n's, and no variable has a higher
    degree in b than in n."""
    if n and (any(map(operator.gt, min(b.itermonoms()), min(n.itermonoms())))
              or any(map(operator.gt, b.degrees(), n.degrees()))):
        return None

    def push(i: int, j: int):
        heapq.heappush(heap, (tuple(map(operator.add, quo[i][0], tail[j][0])), i, j))

    (lead, lc), *tail = sorted((tuple(-e for e in m), c) for m, c in b.items())
    terms = sorted((tuple(-e for e in m), c) for m, c in n.items())
    quo, heap, k = [], [], 0
    while k < len(terms) or heap:
        if k < len(terms) and (not heap or terms[k][0] <= heap[0][0]):
            m, c = terms[k]
            k += 1
        else:
            m, c = heap[0][0], n.ring.domain.zero
        while heap and heap[0][0] == m:
            _, i, j = heapq.heappop(heap)
            c -= quo[i][1] * tail[j][1]
            if j + 1 < len(tail):
                push(i, j + 1)
        if c:
            quo.append((tuple(map(operator.sub, m, lead)), c / lc))
            if max(quo[-1][0]) > 0:
                return None
            if tail:
                push(len(quo) - 1, 0)
    return n.ring.from_dict({tuple(-e for e in m): c for m, c in quo})


def _merge(into: dict, bases: dict, k: int = 1) -> dict:
    """into times bases to the power k, on exponent maps; returns into."""
    for b, j in bases.items():
        into[b] = into.get(b, 0) + j * k
        if not into[b]:
            del into[b]
    return into


def _node_sum(ring, terms: list) -> tuple[PolyElement, dict]:
    """The sum of (poly, bases) nodes: each base's least exponent over the
    terms (0 where absent) is pulled out, so common factors and the common
    denominator stay factored, and the rest is added in the ring."""
    zero = ring.domain.zero
    common = _merge({}, {b: min(m.get(b, 0) for _, m in terms)
                         for b in set().union(*(m for _, m in terms))})
    total, cofactors = ring.zero, {}
    for p, m in terms:
        left = frozenset(_merge(dict(m), common, -1).items())
        if left not in cofactors:
            cofactors[left] = functools.reduce(
                operator.mul, (b**j for b, j in left), ring.one)
        for mon, c in (p * cofactors[left]).items():
            total[mon] = c = c + total.get(mon, zero)
            if not c:
                del total[mon]
    return total, common


def _monomial(index: dict, n: int, node: sp.Expr) -> tuple[tuple, object] | None:
    """node as (exponents, coefficient) if it is a rational times integer
    powers of the expressions index maps to generator positions (n of
    them), else None."""
    monom, coeff = [0] * n, QQ.one
    for f in node.args if node.is_Mul else (node,):
        if f.is_Rational:
            coeff = QQ(f.p, f.q)
            continue
        base, k = f.args if f.is_Pow else (f, sp.S.One)
        if (i := index.get(base)) is None or not k.is_Integer:
            return None
        monom[i] += int(k)
    return tuple(monom), coeff


def _monomial_node(ring, terms: list) -> tuple[PolyElement, dict]:
    """The sum of (exponents, coefficient) monomials as the node _node_sum
    makes of it: each generator's least exponent is pulled out as a base and
    the rest read into the ring.  Equal monomials, which only log nodes of
    one canonical argument give, are summed."""
    low = [min(e) for e in zip(*(m for m, _ in terms))]
    terms = [(tuple(map(operator.sub, m, low)), c) for m, c in terms]
    poly = ring.from_terms(terms)
    if len(poly) < len(terms):
        poly = functools.reduce(operator.add, (ring({m: c}) for m, c in terms))
    return poly, {ring.gens[i]: k for i, k in enumerate(low) if k}


def _node(ring, index: dict, node: sp.Expr) -> tuple[PolyElement, dict]:
    """node as (poly, bases): poly times monic bases to signed powers, the
    factors sympy.together would keep.  index maps symbols, function atoms
    and log nodes to generator positions, and generators are bases;
    monomials over them are read straight into the ring.  It may also map
    a square root to its (poly, bases) value.  A negative power makes its
    nonconstant poly a base (a zero poly raises ZeroDivisionError) and a
    product adds exponents.  Any other node goes to the domain, whose
    CoercionFailed marks an input that is not a rational function."""
    if node.is_Add:
        read = [(a, _monomial(index, ring.ngens, a)) for a in node.args]
        nodes = [_node(ring, index, a) for a, m in read if m is None]
        if monomials := [m for _, m in read if m is not None]:
            nodes.append(_monomial_node(ring, monomials))
        return nodes[0] if len(nodes) == 1 else _node_sum(ring, nodes)
    if (m := _monomial(index, ring.ngens, node)) is not None:
        return _monomial_node(ring, [m])
    if node.is_Mul:
        poly, bases = ring.one, {}
        for p, m in (_node(ring, index, a) for a in node.args):
            poly, bases = poly * p, _merge(bases, m)
        return poly, bases
    if node.is_Pow and node.exp.is_Integer:
        (poly, m), k = _node(ring, index, node.base), int(node.exp)
        bases = _merge({}, m, k)
        if k >= 0:
            return poly**k, bases
        if not poly:
            raise ZeroDivisionError("zero base of a negative power")
        if not poly.is_ground:
            _merge(bases, {poly.monic(): k})
        return ring.ground_new(poly.LC**k), bases
    if (value := index.get(node)) is not None:
        return value
    return ring.ground_new(ring.domain.convert(node)), {}


def _lowest_terms(field: FracField, poly: PolyElement, bases: dict) -> FracElement:
    """The node poly * prod(bases) in lowest terms: each denominator base is
    divided out of the other factors as often as it divides exactly, and
    one field.new cancels what is left.  With no denominator left the
    value is a polynomial, and clearing its coefficient denominators gives
    what that cancel would."""
    if not poly:
        return field.zero
    ring = field.ring
    numer = [[poly, 1]] + [[b, k] for b, k in bases.items() if k > 0]
    den = ring.one
    for d, k in ((d, -k) for d, k in bases.items() if k < 0):
        for f in numer:
            while k >= f[1] and (q := _exact_quotient(f[0], d)) is not None:
                f[0], k = q, k - f[1]
        den *= d**k
    numer = functools.reduce(operator.mul, (f**k for f, k in numer))
    if den == 1:
        common, numer = numer.clear_denoms()
        return field.raw_new(numer, ring.ground_new(common))
    return field.new(numer, den)


def _field_value(field: FracField, e: sp.Expr, index: dict | None = None) -> FracElement:
    """e as an element of field: the value field.from_expr(e) gives, in the
    lowest terms PolyElement.cancel writes, built by _node and
    _lowest_terms.  index maps what stands for each generator to its
    position; by default each of field's symbols stands for itself."""
    index = index or {s: i for i, s in enumerate(field.symbols)}
    return _lowest_terms(field, *_node(field.ring, index, e))


# Distinct expression trees kept by the normal-form and oracle memos below.
# A catalog case meets a few hundred; sympy trees compare and hash
# structurally, so equal trees built apart share one entry.
_MEMO_TREES = 2048


_UNDEFINED = frozenset((sp.zoo, sp.oo, sp.nan))
# where _scan meets a node: free, inside a radicand, inside a logarithm's
# argument or inside a function atom's argument
_FREE, _ROOT, _LOG, _ATOM = range(4)


def _scan(*trees: sp.Expr) -> tuple[set, set, set, set]:
    """One walk of the trees, each shared subtree once: the log nodes and
    square roots, the outermost function atoms outside logs, and the
    symbols outside atoms and logs.  Raises NormalizationError at the end
    if zoo, oo or nan occurs anywhere, as Basic.has matches them, and
    otherwise if a logarithm or a radical (a non-integer rational power)
    occurs inside a logarithm's argument, a radicand or a function atom's
    argument."""
    undefined, nested = False, []
    logs, roots, atoms, symbols = set(), set(), set(), set()
    stack = [(e, _FREE, None) for e in trees]  # node, where, the node it is inside
    seen = set()
    while stack:
        if (item := stack.pop()) in seen:
            continue
        seen.add(item)
        node, inside, owner = item
        if not node.args:
            if inside < _LOG and node.is_Symbol:
                symbols.add(node)
            undefined = undefined or node in _UNDEFINED
            continue
        is_log = isinstance(node, sp.log)
        if is_log or node.is_Pow and isinstance(node.exp, sp.Rational) and node.exp.q != 1:
            if inside:
                nested.append((inside, owner, node))
            elif is_log:
                logs.add(node)
                inside, owner = _LOG, node
            elif node.exp.q == 2:
                roots.add(node)
                inside, owner = _ROOT, node
        elif isinstance(node, AppliedUndef):
            if inside < _LOG:
                atoms.add(node)
            inside, owner = _ATOM, node
        stack.extend((a, inside, owner) for a in node.args)
    if undefined:
        raise NormalizationError("division by zero or undefined constant")
    if nested:
        inside, owner, node = min(nested, key=lambda n: (-n[0], sp.default_sort_key(n[1])))
        if inside == _ROOT:
            raise NormalizationError(f"nested radical or logarithm in radicand {owner.base}")
        kind = "logarithm" if isinstance(node, sp.log) else "radical"
        where = "logarithm" if inside == _LOG else "function atom"
        raise NormalizationError(f"{kind} inside {where} argument {owner.args[0]}")
    return logs, roots, atoms, symbols


@functools.lru_cache(maxsize=_MEMO_TREES)
def _normalize(raw: sp.Expr) -> _NormalForm:
    """The normal form of raw, a function of the tree alone.  Memoized: a
    run zero-tests and rebuilds the same trees many times, and the frozen
    result can be shared.  A NormalizationError is raised again on every
    call, since lru_cache stores only returned values."""
    logs, roots, atoms, symbols = _scan(raw)

    # -- logarithm atoms: one generator per canonical argument -------------
    log_args = {}
    for node in sorted(logs, key=sp.default_sort_key):
        anum, aden = sp.fraction(sp.cancel(node.args[0]))
        log_args[node] = sp.expand(anum) / sp.expand(aden)
    log_syms = {arg: sp.Symbol(f"ln#{i}")
                for i, arg in enumerate(dict.fromkeys(log_args.values()))}

    # -- square roots: stem * sqrt(radicand), one radicand at most ---------
    radicand: sp.Expr | None = None
    stems = {}
    for p in sorted(roots, key=sp.default_sort_key):
        coeff, core = _canonical_radicand(p.base)  # coeff is 0 where core is
        if core == 0 and p.exp < 0:
            raise NormalizationError("denominator vanishes identically")
        with_t = core not in (0, 1)
        stems[p] = (p.base ** ((int(p.exp * 2) - 1) // 2) * coeff, with_t)
        if not with_t:
            continue
        if radicand is None:
            radicand = core
        elif sp.expand(radicand - core) != 0:
            raise MultipleRadicandsError(f"distinct radicands {radicand} and {core}")

    # -- rational arithmetic in QQ(t, logs, rest), lex order ---------------
    # Function atoms are generators themselves, and _sort_gens orders them
    # by their text, so the remaining generators sort exactly as
    # sympy.cancel sorts them and the lex leading coefficient of a
    # denominator is the one cancel normalizes.  index maps each symbol,
    # function atom and log node to its generator and each root to its
    # (poly, bases) value, stem or stem*t.
    ls = list(log_syms.values())
    lead = ([_RADICAL] if radicand is not None else []) + ls
    field = FracField(tuple(lead) + _sort_gens(sorted(symbols | atoms, key=str)), QQ, lex)
    ring = field.ring
    index = {s: i for i, s in enumerate(field.symbols)}
    index.update((node, index[log_syms[arg]]) for node, arg in log_args.items())
    T = ring.gens[0] if radicand is not None else None
    try:
        for p, (stem, with_t) in stems.items():
            index[p] = _node(ring, index, stem)
            if with_t:
                index[p] = _times(index[p], (ring.one, {T: 1}))
        value = _field_value(field, raw, index)
    except ZeroDivisionError as exc:
        raise NormalizationError("denominator vanishes identically") from exc
    except CoercionFailed as exc:
        raise NormalizationError(f"not a rational function: {raw}") from exc
    first_log = len(lead) - len(ls)
    log_gens = ring.gens[first_log:len(lead)]
    num, den = value.numer, value.denom

    # -- reduce modulo t^2 = radicand -------------------------------------
    if radicand is not None:
        S = _ring_poly(ring, index, radicand)
        rule = T**2 - S
        num = num.rem(rule)
        den = den.rem(rule)
        if not den:
            raise NormalizationError("denominator vanishes identically")
        b = den.diff(T)
        if b:
            # den = c*(a + b*t) with c = gcd free of t: conjugating only
            # a + b*t keeps c from being squared
            c, a, b = (den - b * T).cofactors(b)
            num = (num * (a - b * T)).rem(rule)
            den = c * (a * a - b * b * S)
            if not den:
                raise NormalizationError(
                    "denominator vanishes after radical conjugation"
                )

    # -- logarithm linearity ----------------------------------------------
    if ls:
        log_slots = range(first_log, len(lead))
        if any(m[i] for m in den.itermonoms() for i in log_slots):
            raise NonlinearLogarithmError("logarithm atom in a denominator")
        if any(sum(m[i] for i in log_slots) > 1 for m in num.itermonoms()):
            raise NonlinearLogarithmError("logarithm atoms occur non-linearly")

    # -- split into components ---------------------------------------------
    inv_log = {v: k for k, v in log_syms.items()}
    parts: list[tuple[tuple[sp.Expr | None, bool], tuple[sp.Expr, sp.Expr]]] = []

    def emit(log_arg: sp.Expr | None, piece: PolyElement):
        if T is None:
            comps = ((False, piece),)
        else:
            with_rad = piece.diff(T)
            comps = ((False, piece - with_rad * T), (True, with_rad))
        for has_rad, comp in comps:
            if not comp:
                continue
            # without a root or log part, comp/den is value's lowest terms
            fraction = comp.cancel(den) if T is not None or ls else (comp, den)
            parts.append(((log_arg, has_rad), _sympy_fraction(*fraction)))

    if ls:
        pieces = {L: num.diff(g) for L, g in zip(ls, log_gens)}
        const_piece = num
        for L, g in zip(ls, log_gens):
            const_piece -= pieces[L] * g
        emit(None, const_piece)
        for L in sorted(ls, key=lambda s: sp.default_sort_key(inv_log[s])):
            emit(inv_log[L], pieces[L])
    else:
        emit(None, num)

    used_radical = any(has_rad for (_, has_rad), _ in parts)
    return _NormalForm(radicand if used_radical else None, tuple(parts))


# ---------------------------------------------------------------------------
# Expr


class Expr:
    """Immutable scalar expression bound to a context.

    Its sympy side is built on first read.  raw, the tree, is given built,
    as a function that builds it, or as None for the canonical tree of the
    normal form.  An Expr of diffgeo's factored algebra carries the pair
    (algebra, value): is_zero reads only the value's numerator value[0],
    and algebra.export(value) gives the normal form when one is read."""

    __slots__ = ("ctx", "_raw", "_nf", "_canonical", "_carried")

    def __init__(self, ctx: Context, raw, nf: _NormalForm | None = None,
                 carried: tuple | None = None):
        if not (raw is None or isinstance(raw, sp.Basic) or callable(raw)):
            raw = sp.sympify(raw)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_nf", nf)
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_carried", carried)

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    @property
    def raw(self) -> sp.Expr:
        raw = self._raw
        if not isinstance(raw, sp.Basic):
            raw = self.canonical if raw is None else raw()
            object.__setattr__(self, "_raw", raw)
        return raw

    # -- normal form ------------------------------------------------------

    def normal_form(self) -> _NormalForm:
        nf = self._nf
        if nf is None:
            carried = self._carried
            nf = _normalize(self.raw) if carried is None else carried[0].export(carried[1])
            object.__setattr__(self, "_nf", nf)
        return nf

    @property
    def canonical(self) -> sp.Expr:
        c = self._canonical
        if c is None:
            c = self.normal_form().rebuild()
            object.__setattr__(self, "_canonical", c)
        return c

    def normalized(self) -> "Expr":
        carried = self._carried
        return Expr(self.ctx, None, self.normal_form() if carried is None else self._nf, carried)

    # -- predicates ---------------------------------------------------------

    def is_rational_constant(self) -> bool:
        nf = self.normal_form()
        if nf.is_zero:
            return True
        if len(nf.parts) != 1:
            return False
        (key, (num, den)) = nf.parts[0]
        return key == (None, False) and num.is_Rational and den.is_Rational

    def depends_on(self, name: str) -> bool:
        return not is_zero(diff(self, name))

    def free_names(self) -> set[str]:
        out = set()
        for s in self.canonical.free_symbols:
            out.add(s.name)
        for a in self.canonical.atoms(AppliedUndef):
            info = self.ctx.classify_atom(a)
            if info is not None:
                out.add(info[0].name)
        return out

    def equals(self, other) -> bool:
        return is_zero(self - _coerce(self.ctx, other))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = _coerce(self.ctx, other)
        return Expr(_join(self.ctx, o.ctx), self.raw + o.raw)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(self.ctx, other)
        return Expr(_join(self.ctx, o.ctx), self.raw - o.raw)

    def __rsub__(self, other):
        o = _coerce(self.ctx, other)
        return Expr(_join(self.ctx, o.ctx), o.raw - self.raw)

    def __mul__(self, other):
        o = _coerce(self.ctx, other)
        return Expr(_join(self.ctx, o.ctx), self.raw * o.raw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(self.ctx, other)
        return Expr(_join(self.ctx, o.ctx), self.raw / o.raw)

    def __rtruediv__(self, other):
        o = _coerce(self.ctx, other)
        return Expr(_join(self.ctx, o.ctx), o.raw / self.raw)

    def __neg__(self):
        return Expr(self.ctx, -self.raw)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer powers are supported")
        return Expr(self.ctx, self.raw ** exponent)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return f"Expr({render(self)})"

    def __str__(self):
        return render(self)


def _coerce(ctx: Context, value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction, sp.Rational)):
        return ctx.number(value)
    raise TypeError(f"cannot coerce {value!r} to Expr")


def sqrt(e: Expr) -> Expr:
    return Expr(e.ctx, sp.sqrt(e.raw))


def ln(e: Expr) -> Expr:
    return Expr(e.ctx, sp.log(e.raw))


# ---------------------------------------------------------------------------
# Parser

_FUNCS = ("sqrt", "ln")
# largest |n| accepted in "^n": the catalog needs 6; (u+v)^100000 would
# otherwise reach normalization and run without bound.  The cap also holds
# for the exponents sympy builds by merging: ((u+v)^64)^64 is (u+v)^4096
_MAX_EXPONENT = 64
# largest bit length of a number a power may evaluate to while parsing;
# ((2^64)^64)^64 would otherwise be computed to 262145 bits
_MAX_NUMBER_BITS = 1024
# largest total degree of a parsed node (a sum takes the max, a product
# or quotient the sum, a power |k| times): ((u+v)^64 + 1)^64 keeps every
# exponent at 64 but would expand to degree 4096
_MAX_DEGREE = 128


def _capped(node: sp.Expr, degree: int, pos: int) -> tuple[sp.Expr, int]:
    """(node, degree), unless a power in node or among its factors has an
    exponent above _MAX_EXPONENT in absolute value, or degree is above
    _MAX_DEGREE; then ParseError at pos."""
    for p in (node, *node.args) if node.is_Mul else (node,):
        if p.is_Pow and p.exp.is_Rational and abs(p.exp) > _MAX_EXPONENT:
            raise ParseError(
                f"exponent {p.exp} exceeds {_MAX_EXPONENT} in absolute value", pos
            )
    if degree > _MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds {_MAX_DEGREE}", pos)
    return node, degree


def _number_bits(base: sp.Expr, k: int) -> int:
    """An upper bound on the bit length of the numbers base**k evaluates."""
    bits = 0
    for factor in sp.Mul.make_args(base):
        b, e = factor.as_base_exp()
        if b.is_Rational:
            size = max(abs(b.p).bit_length(), b.q.bit_length())
            bits += math.ceil(size * abs(e * k))
    return bits


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        pos = i + 1
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], pos))
            i = j
        elif c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            while j < n and text[j] == "'":
                j += 1
            tokens.append(_Token("ident", text[i:j], pos))
            i = j
        elif c in "+-*/^(),":
            tokens.append(_Token(c, c, pos))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", pos)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    """Recursive descent over: sums, products, unary minus, integer powers
    of absolute value at most _MAX_EXPONENT, sqrt/ln and declared
    function-atom applications.  Each method returns a node with a bound
    on its total degree (symbols, ln and function atoms count 1, a root
    its radicand).  A power or product whose result holds a larger
    exponent or degree, or a power that would evaluate a number longer
    than _MAX_NUMBER_BITS, is rejected where it is built."""

    def __init__(self, text: str, ctx: Context):
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            prev = self.tokens[self.i - 1] if self.i else tok
            where = prev.pos if tok.kind == "end" else tok.pos
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", where)
        return self.next()

    def parse(self) -> sp.Expr:
        e, _ = self.sum_()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return e

    def sum_(self) -> tuple[sp.Expr, int]:
        e, d = self.product()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs, rd = self.product()
            e = e + rhs if op == "+" else e - rhs
            d = max(d, rd)
        return e, d

    def product(self) -> tuple[sp.Expr, int]:
        e, d = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs, rd = self.unary()
            e, d = _capped(e * rhs if op.kind == "*" else e / rhs, d + rd, op.pos)
        return e, d

    def unary(self) -> tuple[sp.Expr, int]:
        if self.peek().kind == "-":
            self.next()
            e, d = self.unary()
            return -e, d
        return self.power()

    def power(self) -> tuple[sp.Expr, int]:
        base, d = self.atom()
        if self.peek().kind == "^":
            op = self.next()
            k = self.exponent()
            if _number_bits(base, k) > _MAX_NUMBER_BITS:
                raise ParseError(
                    f"number in power exceeds {_MAX_NUMBER_BITS} bits", op.pos
                )
            return _capped(base**k, d * abs(int(k)), op.pos)
        return base, d

    def exponent(self) -> sp.Integer:
        neg = False
        if self.peek().kind == "(":
            self.next()
            if self.peek().kind == "-":
                self.next()
                neg = True
            tok = self.expect("num")
            self.expect(")")
        else:
            if self.peek().kind == "-":
                self.next()
                neg = True
            tok = self.expect("num")
        value = -int(tok.text) if neg else int(tok.text)
        if abs(value) > _MAX_EXPONENT:
            raise ParseError(
                f"exponent {value} exceeds {_MAX_EXPONENT} in absolute value", tok.pos
            )
        return sp.Integer(value)

    def atom(self) -> tuple[sp.Expr, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return sp.Integer(int(tok.text)), 0
        if tok.kind == "(":
            self.next()
            e = self.sum_()
            self.expect(")")
            return e
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if self.peek().kind == "(":
                self.next()
                arg, d = self.sum_()
                self.expect(")")
                return self.apply(name, arg, tok.pos), (d if name == "sqrt" else 1)
            if name in _FUNCS:
                raise ParseError(f"{name} requires an argument", tok.pos)
            if "'" in name or self.ctx._base_atom(name) is not None:
                fa = self.ctx._base_atom(name.rstrip("'"))
                if fa is None:
                    raise UnknownSymbolError(name, tok.pos)
                raise ParseError(
                    f"function atom {name!r} must be applied to its argument", tok.pos
                )
            if not self.ctx.has(name):
                raise UnknownSymbolError(name, tok.pos)
            return self.ctx.sym(name), 1
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)

    def apply(self, name: str, arg: sp.Expr, pos: int) -> sp.Expr:
        if name == "sqrt":
            return sp.sqrt(arg)
        if name == "ln":
            return sp.log(arg)
        base = name.rstrip("'")
        order = len(name) - len(base)
        fa = self.ctx._base_atom(base)
        if fa is None:
            raise UnknownSymbolError(name, pos)
        if sp.expand(sp.cancel(arg - fa.arg)) != 0:
            raise ParseError(
                f"function atom {base!r} is declared with argument"
                f" {sp.sstr(fa.arg)}", pos
            )
        return fa.applied(order)


def parse(text: str, ctx: Context) -> Expr:
    """Parse ``text`` in ``ctx``; raises ParseError / UnknownSymbolError."""
    return Expr(ctx, _Parser(text, ctx).parse())


# ---------------------------------------------------------------------------
# Renderer

_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


def _render_sym(e: sp.Expr, ctx: Context, prec: int = 0) -> str:
    if isinstance(e, sp.Integer):
        s = str(e)
        return f"({s})" if e < 0 and prec >= _MUL else s
    if isinstance(e, sp.Rational):
        s = f"{e.p}/{e.q}"
        if e < 0 and prec >= _MUL:
            return f"({s})"
        return s
    if isinstance(e, sp.Symbol):
        return e.name
    if isinstance(e, AppliedUndef):
        return f"{e.func.__name__}({_render_sym(e.args[0], ctx)})"
    if isinstance(e, sp.log):
        return f"ln({_render_sym(e.args[0], ctx)})"
    if isinstance(e, sp.Pow):
        if e.exp == sp.Rational(1, 2):
            return f"sqrt({_render_sym(e.base, ctx)})"
        if e.exp == sp.Rational(-1, 2):
            return f"1/sqrt({_render_sym(e.base, ctx)})"
        if isinstance(e.exp, sp.Rational) and e.exp.q == 2:
            k = int(e.exp * 2)
            base = _render_sym(e.base ** ((k - 1) // 2) * sp.sqrt(e.base), ctx, prec)
            return base
        exp = int(e.exp)
        base = _render_sym(e.base, ctx, _POW)
        if exp >= 0:
            return f"{base}^{exp}"
        return f"{base}^(-{-exp})"
    if isinstance(e, sp.Add):
        terms = sp.Add.make_args(e)
        terms = sorted(terms, key=sp.default_sort_key)
        out = ""
        for i, term in enumerate(terms):
            neg, body = _split_sign(term)
            rendered = _render_sym(body, ctx, _ADD)
            if i == 0:
                out = ("-" if neg else "") + rendered
            else:
                out += (" - " if neg else " + ") + rendered
        return f"({out})" if prec >= _MUL else out
    if isinstance(e, sp.Mul):
        neg, body = _split_sign(e)
        num_parts: list[str] = []
        den_parts: list[str] = []
        coeff = sp.Integer(1)
        for f in sp.Mul.make_args(body):
            if isinstance(f, sp.Rational):
                coeff *= f
            elif isinstance(f, sp.Pow) and isinstance(f.exp, (sp.Integer,)) and f.exp < 0:
                den_parts.append(_render_sym(f.base ** (-f.exp), ctx, _MUL))
            else:
                num_parts.append(_render_sym(f, ctx, _MUL))
        if coeff != 1:
            if coeff.q != 1 and coeff.p == 1:
                den_parts.insert(0, str(coeff.q))
            elif coeff.q != 1:
                num_parts.insert(0, str(coeff.p))
                den_parts.insert(0, str(coeff.q))
            else:
                num_parts.insert(0, str(coeff.p))
        num = "*".join(num_parts) if num_parts else "1"
        if den_parts:
            den = "*".join(den_parts)
            if len(den_parts) > 1:
                den = f"({den})"
            out = f"{num}/{den}"
        else:
            out = num
        if neg:
            out = f"-{out}"
            return f"({out})" if prec >= _MUL else out
        return out
    raise NormalizationError(f"cannot render node {e!r}")


def _split_sign(e: sp.Expr) -> tuple[bool, sp.Expr]:
    if isinstance(e, sp.Mul):
        coeff = e.args[0]
        if isinstance(coeff, sp.Rational) and coeff < 0:
            return True, sp.Mul(-coeff, *e.args[1:])
    if isinstance(e, sp.Rational) and e < 0:
        return True, -e
    return False, e


def render(e: Expr) -> str:
    """Canonical text; reparsing yields an expression with equal normal form."""
    c = e.canonical
    if c == 0:
        return "0"
    return _render_sym(c, e.ctx)


# ---------------------------------------------------------------------------
# Differentiation and substitution


def _resolve_symbol(e_ctx: Context, s) -> sp.Symbol:
    if isinstance(s, Expr):
        if isinstance(s.raw, sp.Symbol):
            return s.raw
        raise ValueError(f"not a plain symbol: {s}")
    if isinstance(s, sp.Symbol):
        return s
    if isinstance(s, str):
        return e_ctx.sym(s)
    raise TypeError(f"cannot interpret {s!r} as a symbol")


def _ring_poly(ring, index: dict, e: sp.Expr) -> PolyElement:
    """The expanded polynomial e, whose factors are keys of index (symbols
    and function atoms to generator positions), as a ring element."""
    return ring.from_dict(dict(_monomial(index, ring.ngens, t) for t in sp.Add.make_args(e)))


def _poly_derivative(dgens: dict, p: PolyElement) -> list:
    """D(p) as a list of (poly, bases) nodes, where dgens maps generator
    positions to the nonzero nodes D(generator)."""
    return [(dp * q, m) for i, (q, m) in dgens.items() if (dp := p.diff(i))]


def _derivative_terms(dgens: dict, node: tuple) -> list:
    """D(poly * prod b^k) = D(poly) * prod b^k + poly * sum k D(b)/b * prod b^k,
    as a list of nodes."""
    poly, bases = node
    terms = [(q, _merge(dict(bases), m)) for q, m in _poly_derivative(dgens, poly)]
    for b, k in bases.items():
        terms += [(poly * q * k, _merge(_merge(dict(bases), m), {b: -1}))
                  for q, m in _poly_derivative(dgens, b)]
    return terms


def _times(a: tuple, b: tuple) -> tuple:
    return a[0] * b[0], _merge(dict(a[1]), b[1])


@functools.lru_cache(maxsize=_MEMO_TREES)
def _derive(nf: _NormalForm, images: tuple) -> _NormalForm:
    """The normal form of D(value of nf) for the derivation D with D(s) =
    image for each (s, image) in images, D = 0 on other symbols and
    D(f^(k)(arg)) = f^(k+1)(arg) * D(arg) on function atoms.  See the
    module docstring.  Memoized: a run differentiates the same entries many
    times."""
    exprs = [x for _, (num, den) in nf.parts for x in (num, den)]
    exprs += [L for (L, _), _ in nf.parts if L is not None]
    if nf.radicand is not None:
        exprs.append(nf.radicand)
    atoms = set().union(*(x.atoms(AppliedUndef) for x in exprs))
    symbols = set().union(*(x.free_symbols for x in exprs))
    nexts = {a: sp.Function(a.func.__name__ + "'")(a.args[0]) for a in atoms
             if any(s in a.free_symbols for s, _ in images)}
    for s, image in images:
        if s in symbols:
            symbols |= image.free_symbols
    gens = _sort_gens(sorted(symbols | atoms | set(nexts.values()), key=str))
    field = FracField(gens, QQ, lex)
    ring = field.ring
    index = {g: i for i, g in enumerate(gens)}

    dgens = {index[s]: (_ring_poly(ring, index, image), {})
             for s, image in images if s in index}
    # nested atoms first: an argument may hold atoms declared before it
    for a in sorted(nexts, key=lambda a: len(a.args[0].atoms(AppliedUndef))):
        arg = _node(ring, index, a.args[0])
        dq, dm = _node_sum(ring, _derivative_terms(dgens, arg))
        if dq:
            dgens[index[a]] = (ring.gens[index[nexts[a]]] * dq, dm)

    def quotient(num: sp.Expr, den: sp.Expr) -> tuple:
        n, d = _ring_poly(ring, index, num), _ring_poly(ring, index, den)
        return n.quo_ground(d.LC), ({} if d.is_ground else {d.monic(): -1})

    def log_derivative(*factors: tuple[sp.Expr, int]) -> list:
        """D(f)/f for f the product of polynomials to the given powers."""
        terms = []
        for x, k in factors:
            b = _ring_poly(ring, index, x).monic()
            terms += [(q * k, _merge(dict(m), {b: -1}))
                      for q, m in _poly_derivative(dgens, b)]
        return terms

    coeffs = {key: quotient(num, den) for key, (num, den) in nf.parts}
    logs = {L: log_derivative(*zip(sp.fraction(L), (1, -1)))
            for (L, _) in coeffs if L is not None}
    root = []
    if nf.radicand is not None:
        root = [(q / 2, m) for q, m in log_derivative((nf.radicand, 1))]
    keys = [(None, r) for r in (False, True) if any(k[1] == r for k in coeffs)]
    keys += [k for k in coeffs if k[0] is not None]
    parts = []
    for key in keys:
        L, has_rad = key
        terms = []
        if key in coeffs:
            terms += _derivative_terms(dgens, coeffs[key])
            if has_rad:
                terms += [_times(coeffs[key], t) for t in root]
        if L is None:
            for (L2, r2), c in coeffs.items():
                if L2 is not None and r2 == has_rad:
                    terms += [_times(c, t) for t in logs[L2]]
        value = _lowest_terms(field, *_node_sum(ring, terms))
        if value:
            parts.append((key, _sympy_fraction(value.numer, value.denom)))
    used_radical = any(has_rad for (_, has_rad), _ in parts)
    return _NormalForm(nf.radicand if used_radical else None, tuple(parts))


def _derivative(e: Expr, images: tuple) -> Expr:
    """D(e) for the derivation _derive takes images for; zero at once when
    e holds none of the symbols D moves."""
    free = e.canonical.free_symbols
    if not any(s in free for s, _ in images):
        return Expr(e.ctx, None, _NormalForm(None, ()))
    return Expr(e.ctx, None, _derive(e.normal_form(), images))


def diff(e: Expr, s) -> Expr:
    """Exact partial derivative with respect to a declared symbol."""
    return _derivative(e, ((_resolve_symbol(e.ctx, s), sp.Integer(1)),))


def total_x_derivative(e: Expr) -> Expr:
    """D_x e over the first jet space:
    D_x = d/dx + sum_k u^k_x d/du^k + sum_k u^k_xx d/du^k_x."""
    ctx = e.ctx
    free = e.canonical.free_symbols
    for j2 in ctx.jet2_syms:
        if j2 in free:
            raise JetOrderError(
                f"{j2.name} present: total derivative would need third-order jets"
            )
    images = ((ctx.x, sp.Integer(1)),) + tuple(zip(ctx.field_syms, ctx.jet1_syms))
    return _derivative(e, images + tuple(zip(ctx.jet1_syms, ctx.jet2_syms)))


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution followed by normalization.

    Keys are declared symbols (by name or Expr) or function-atom names;
    binding an atom family rewrites every formal derivative by repeated
    differentiation of the bound expression in the atom argument.
    """
    ctx = e.ctx
    repl: dict[sp.Expr, sp.Expr] = {}
    result_ctx = ctx
    for key, value in bindings.items():
        val = _coerce(ctx, value) if not isinstance(value, Expr) else value
        result_ctx = _join(result_ctx, val.ctx)
        name = key if isinstance(key, str) else (
            key.raw.name if isinstance(key, Expr) and isinstance(key.raw, sp.Symbol)
            else None
        )
        if name is not None and name in ctx._atoms:
            fa = ctx._atoms[name]
            if not isinstance(fa.arg, sp.Symbol):
                raise ValueError(
                    f"cannot bind atom {name!r}: argument is not a single variable"
                )
            max_order = 0
            for a in e.canonical.atoms(AppliedUndef):
                info = ctx.classify_atom(a)
                if info and info[0].name == name:
                    max_order = max(max_order, info[1])
            deriv = val
            for order in range(max_order + 1):
                repl[fa.applied(order)] = deriv.canonical
                if order < max_order:
                    deriv = diff(deriv, fa.arg)
        else:
            sym = _resolve_symbol(ctx, key)
            repl[sym] = val.raw
    return Expr(result_ctx, e.canonical.xreplace(repl)).normalized()


# ---------------------------------------------------------------------------
# Zero test with an optional exact probe oracle


def is_zero(e: Expr) -> bool:
    """Decides whether e is identically zero.

    True iff every component of the normal form vanishes, or, for an Expr
    carrying a factored value, iff its numerator does; raises
    MultipleRadicandsError when more than one radicand survives.
    """
    carried = e._carried
    result = not carried[1][0] if carried is not None else e.normal_form().is_zero
    state = _probe_state()
    if state.points > 0:
        state.check(e, result)
    return result


class _ProbeState:
    """Cross-checks is_zero decisions by exact evaluation at seeded
    rational points; disagreements are recorded, never raised."""

    def __init__(self, points: int):
        self.points = points
        self.checked = 0
        self.disagreements: list[str] = []

    def check(self, e: Expr, claimed_zero: bool):
        self.checked += 1
        assumption_raws = tuple(a.raw for a in e.ctx.assumptions)
        verdict = _probe_expression(e.raw, assumption_raws, self.points)
        if verdict is None:
            return
        if verdict != claimed_zero:
            self.disagreements.append(
                f"is_zero={claimed_zero} but probe says {verdict}: {render(e)}"
            )


_STATE: _ProbeState | None = None


def _probe_state() -> _ProbeState:
    global _STATE
    if _STATE is None:
        _STATE = _ProbeState(int(os.environ.get("PENCIL_FORGE_PROBES", "0")))
    return _STATE


def set_probe_points(n: int):
    global _STATE
    _STATE = _ProbeState(n)
    _probe_expression.cache_clear()


def reset_probe_state():
    global _STATE
    _STATE = None
    _probe_expression.cache_clear()


def probe_report() -> tuple[int, list[str]]:
    state = _probe_state()
    return state.checked, list(state.disagreements)


@functools.lru_cache(maxsize=_MEMO_TREES)
def _probe_expression(
    raw: sp.Expr, assumption_raws: tuple[sp.Expr, ...], points: int
) -> bool | None:
    """False if raw is not zero at some sampled point, True if it is zero at
    all, None if none was sampled or raw holds a node the oracle does not
    know.  Points where a value is undefined or an assumption (a raw tree,
    whose hash normalizes nothing) is zero are redrawn, up to 40*points
    draws.  Each variable, a symbol or a function atom named by its text,
    takes randint(1,40)/randint(1,9) per point in name order."""
    masked, names = _variables(raw)
    checks = [a for a in assumption_raws if (v := _variables(a)[1]) and v <= names]
    names = sorted(names) or [""]  # a constant tree draws one unused pair per point
    rng = random.Random(int(hashlib.sha256(sp.srepr(masked).encode()).hexdigest()[:12], 16))
    sampled = attempts = 0
    while sampled < points and attempts < 40 * points:
        n = min(points - sampled, 40 * points - attempts)
        attempts += n
        draws = [[(rng.randint(1, 40), rng.randint(1, 9)) for _ in names] for _ in range(n)]
        batch = _Columns(dict(zip(names, zip(*draws))), n)
        try:
            for a in checks:
                batch.dead.update(i for i, v in enumerate(batch.column(a)) if not v)
            values = batch.column(raw)
        except _Unknown:
            return None
        live = [v for i, v in enumerate(values) if i not in batch.dead]
        if any(live):
            return False
        sampled += len(live)
    return True if sampled else None


def _variables(tree: sp.Expr) -> tuple[sp.Expr, set[str]]:
    """tree with each function atom masked by a symbol named by its text,
    and the names of its symbols."""
    tree = tree.xreplace({a: sp.Symbol(str(a)) for a in tree.atoms(AppliedUndef)})
    return tree, {s.name for s in tree.free_symbols}


_P = 2**61 - 1  # the oracle computes modulo this Mersenne prime
_INV = [0] + [pow(b, -1, _P) for b in range(1, 10)]  # of the drawn denominators
_ONE = (1, ())  # the basis element 1: square class 1 and no logarithm


class _Unknown(Exception):
    """A node the oracle does not evaluate."""


def _residue(num: int, den: int) -> int:
    return num * pow(den, _P - 2, _P) % _P


class _Columns:
    """A column per node for a batch of n points (draws maps each variable to
    its (num, den) per point): residues mod _P where rational, and above a
    root or a log {(s, logs): r} for r*sqrt(s)*prod(ln(q) for q in logs), s
    a square class of the point; exact Fractions in radicands and log
    arguments.  A point where a value is undefined joins dead."""

    def __init__(self, draws: dict, n: int):
        self.draws, self.n, self.dead = draws, n, set()
        self.classes = [[1] for _ in range(n)]
        self.memo = ({}, {})  # residue columns, exact columns

    def column(self, node: sp.Expr, exact: bool = False) -> list:
        if (col := self.memo[exact].get(node)) is None:
            col = self.memo[exact][node] = self._column(node, exact)
        return col

    def _each(self, col: list, fn) -> list:
        """fn(entry, the point's classes) at each point; None marks it dead."""
        out = [fn(x, cls) for x, cls in zip(col, self.classes)]
        self.dead.update(i for i, v in enumerate(out) if v is None)
        return [{} if v is None else v for v in out]

    def _column(self, node: sp.Expr, exact: bool) -> list:
        if node.is_Rational:
            if not exact and node.p and (node.p % _P == 0 or node.q % _P == 0):
                raise _Unknown  # its residue is 0 or undefined
            return [(Fraction if exact else _residue)(node.p, node.q)] * self.n
        if node.is_Symbol or isinstance(node, AppliedUndef):
            return [Fraction(a, b) if exact else a * _INV[b] % _P
                    for a, b in self.draws[str(node)]]
        if node.is_Add or node.is_Mul:
            cols, op = [self.column(a, exact) for a in node.args], sum if node.is_Add else math.prod
            if exact:
                return [op(t) for t in zip(*cols)]
            if all(type(c[0]) is int for c in cols):
                return [op(t) % _P for t in zip(*cols)]
            rows = list(zip(*(c if type(c[0]) is dict else
                              [{_ONE: v} if v else {} for v in c] for c in cols)))
            if node.is_Add:
                return [_sum(r) for r in rows]
            return self._each(rows, lambda r, cls: functools.reduce(
                lambda x, y: _probe_product(x, y, cls), r))
        if node.is_Pow and node.exp.is_Integer:
            col, k = self.column(node.base, exact), int(node.exp)
            if k < 0:
                self.dead.update(i for i, x in enumerate(col) if not x)
            if exact:
                return [x**k if x else x for x in col]
            if type(col[0]) is int:
                return [pow(x, k, _P) if x else 0 for x in col]
            return self._each(col, lambda x, cls: _probe_power(x, k, cls))
        if not exact and node.is_Pow and node.exp.is_Rational and node.exp.q == 2:
            k = int(node.exp * 2)
            return self._each(self.column(node.base, True), lambda r, cls: _root(r, k, cls))
        if not exact and isinstance(node, sp.log):
            return self._each(self.column(node.args[0], True), _log)
        raise _Unknown


def _sum(values) -> dict:
    out = {}
    for v in values:
        for key, c in v.items():
            out[key] = (out.get(key, 0) + c) % _P
    return {key: c for key, c in out.items() if c}


def _square_class(m: int, classes: list) -> tuple[Fraction, int]:
    """(c, s) with sqrt(m) = c*sqrt(s), c > 0, for an integer m != 0: s is the
    first of the point's classes with m*s a square, else m opens a class."""
    for s in classes:
        if m * s > 0 and math.isqrt(m * s) ** 2 == m * s:
            return Fraction(math.isqrt(m * s), abs(s)), s
    classes.append(m)
    return Fraction(1), m


def _root(r: Fraction, k: int, classes: list) -> dict | None:
    """r^(k/2) for odd k, with sqrt(r) = sqrt(num*den)/den = c*sqrt(s)/den;
    None for a negative power of 0."""
    if not r:
        return None if k < 0 else {}
    c, s = _square_class(r.numerator * r.denominator, classes)
    v = _residue(*(r ** ((k - 1) // 2) * c / r.denominator).as_integer_ratio())
    return {(s, ()): v} if v else {}


def _log(a: Fraction, classes: list) -> dict | None:
    """ln(a) = sum of e*ln(q) over the prime powers q^e of a; None for a <= 0."""
    if a > 0:
        return {(1, (q,)): e for q, e in sp.factorint(a.numerator).items()} | {
            (1, (q,)): -e % _P for q, e in sp.factorint(a.denominator).items()}


def _probe_product(x: dict, y: dict, classes: list) -> dict:
    """x*y on the principal branch: sqrt(s)*sqrt(t) = -sqrt(s*t) for s, t < 0."""
    terms = []
    for (s, logs), c in x.items():
        for (t, more), d in y.items():
            k, r = (1, s * t) if s == 1 or t == 1 else _square_class(s * t, classes)
            k = _residue(-k.numerator if s < 0 and t < 0 else k.numerator, k.denominator)
            terms.append({(r, tuple(sorted(logs + more))): c * d * k})
    return _sum(terms)


def _probe_power(x: dict, k: int, classes: list) -> dict | None:
    """x^k, inverting x = a + b*sqrt(s) as (a - b*sqrt(s))/(a^2 - b^2*s) for
    k < 0; None where x is 0 or holds a logarithm or two irrational classes."""
    if k < 0:
        rest = [(key, c) for key, c in x.items() if key != _ONE]
        if len(rest) > 1 or rest and rest[0][0][1]:
            return None
        a, ((s, _), b) = x.get(_ONE, 0), rest[0] if rest else (_ONE, 0)
        if not (norm := (a * a - b * b * s) % _P):
            return None
        inv = pow(norm, -1, _P)
        x, k = _sum([{_ONE: a * inv}, {(s, ()): -b * inv}]), -k
    return functools.reduce(lambda y, _: _probe_product(y, x, classes), range(k), {_ONE: 1})


# ---------------------------------------------------------------------------
# Antidifferentiation


def antiderivative(e: Expr, s) -> Expr:
    """E with diff(E, s) = e, for integrands rational in s whose denominator
    splits into factors of degree at most one in s; simple poles integrate
    to logarithm atoms.  Raises NotIntegrableError otherwise."""
    ctx = e.ctx
    var = _resolve_symbol(ctx, s)
    nf = e.normal_form()
    total = sp.Integer(0)
    for (log_arg, has_rad), (num, den) in nf.parts:
        factor = sp.Integer(1)
        if has_rad:
            if var in nf.radicand.free_symbols:
                raise NotIntegrableError(f"radicand depends on {var.name}")
            factor = sp.sqrt(nf.radicand)
        if log_arg is not None:
            if var in log_arg.free_symbols:
                raise NotIntegrableError(f"logarithm argument depends on {var.name}")
            factor *= sp.log(log_arg)
        atoms = map(ctx.classify_atom, num.atoms(AppliedUndef) | den.atoms(AppliedUndef))
        if any(info and var in info[0].arg.free_symbols for info in atoms):
            raise NotIntegrableError(f"function atom argument depends on {var.name}")
        total += _integrate_rational(num, den, var) * factor
    return Expr(ctx, total).normalized()


def _integrate_rational(num: sp.Expr, den: sp.Expr, var: sp.Symbol) -> sp.Expr:
    """An antiderivative in var of num/den, expanded polynomials, by partial
    fractions over K[var] with K the rational functions in the other
    symbols.  See the module docstring."""
    _, _, atoms, symbols = _scan(num, den)
    if var not in symbols:
        return num / den * var
    others = _sort_gens(sorted((symbols | atoms) - {var}, key=str))
    ring = PolyRing((var,) + others, QQ, lex)
    index = {g: i for i, g in enumerate(ring.symbols)}
    K = FracField(others, QQ, lex).to_domain()
    uni = PolyRing((var,), K, lex)
    zero = K.zero

    def in_var(p: PolyElement) -> PolyElement:
        """p as an element of K[var]."""
        coeffs: dict = {}
        for (k, *m), c in p.items():
            coeffs.setdefault((k,), {})[tuple(m)] = c
        return uni.from_dict({k: K.field(K.field.ring.from_dict(c)) for k, c in coeffs.items()})

    d = _ring_poly(ring, index, den)
    D = in_var(d)
    quo, rem = divmod(in_var(_ring_poly(ring, index, num)), D)
    factors = [(f, k) for f, k in d.factor_list()[1] if f.degree(0)] if rem else []
    for f, _ in factors:
        if f.degree(0) > 1:
            raise NotIntegrableError(
                f"denominator factor of degree > 1 in {var.name}: {f.as_expr()}"
            )
    # the poles of order p >= 2 integrate to a rational part over shared
    shared = functools.reduce(operator.mul, (f ** (k - 1) for f, k in factors), ring.one)
    body = in_var(shared) * uni.from_dict({(k + 1,): c / (k + 1) for (k,), c in quo.items()})
    logs = sp.Integer(0)
    for f, k in factors:
        F = in_var(f)
        a, root = F.get((1,), zero), -F.get((0,), zero) / F.get((1,), zero)
        # near root, num/den = y^-k * top(y)/bottom(y) with y = var - root = f/a
        top, bottom = _taylor(rem, root, k), _taylor(D, root, 2 * k)[k:]
        h = []
        for j in range(k):
            h.append((top[j] - sum((bottom[i] * h[j - i] for i in range(1, j + 1)), zero))
                     / bottom[0])
        logs += K.to_sympy(h[k - 1]) * sp.log(f.as_expr())
        for p in range(2, k + 1):
            body += in_var(shared.exquo(f ** (p - 1))) * (h[k - p] * a ** (p - 1) / (1 - p))
    common, body = body.clear_denoms()
    return body.as_expr() / (K.to_sympy(common) * shared.as_expr()) + logs


def _taylor(p: PolyElement, root, n: int) -> list:
    """The first n Taylor coefficients at root of p, univariate over a
    field: the remainders of repeated synthetic division by var - root."""
    zero = p.ring.domain.zero
    coeffs, out = [p.get((m,), zero) for m in range(p.degree(), -1, -1)], []
    for _ in range(n):
        coeffs = list(itertools.accumulate(coeffs, lambda b, c: b * root + c))
        out.append(coeffs.pop() if coeffs else zero)
    return out
