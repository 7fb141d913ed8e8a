"""Property: symcore._field_value(FIELD, e) is FIELD.from_expr(e) on random
rational trees, written in the lowest terms PolyElement.cancel gives.
from_expr inverts without cancelling, so its value is compared after that
cancel.  The trees reach every path of the monomial reader: monomials with
negative exponents and rational coefficients, sums whose terms all share
a generator power, powers of sums and products of sums, nested.  The seed
is fixed and the example count bounded."""

import pytest
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex

from pencil_forge import symcore as sc

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

u, v, w = sp.symbols("u v w")
# a function atom as _normalize reads it: a generator named like the atom
G12 = sp.Symbol("g12(v)")
GENS = (u, v, w, G12)
FIELD = FracField(GENS, QQ, lex)


@st.composite
def monomials(draw):
    sign = draw(st.sampled_from((1, -1)))
    coeff = sp.Rational(sign * draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    return sp.Mul(coeff, *(g ** draw(st.integers(-2, 2)) for g in GENS))


@st.composite
def sums(draw):
    terms = draw(st.lists(monomials(), min_size=1, max_size=4))
    if draw(st.booleans()):
        shared = draw(st.sampled_from(GENS)) ** draw(st.sampled_from((-2, -1, 1, 2)))
        terms = [shared * t for t in terms]
    return sp.Add(*terms)


TREES = st.recursive(
    st.one_of(monomials(), sums()),
    lambda kids: st.one_of(
        st.tuples(kids, st.integers(-2, 2)).map(lambda p: p[0] ** p[1]),
        st.lists(kids, min_size=2, max_size=3).map(lambda ks: sp.Mul(*ks)),
        st.lists(kids, min_size=2, max_size=3).map(lambda ks: sp.Add(*ks)),
    ),
    max_leaves=4,
)


@hypothesis.settings(
    max_examples=100, derandomize=True, deadline=None, database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
@hypothesis.given(e=TREES)
def test_field_value_agrees_with_from_expr(e):
    # a sum that collapsed to 0 under a negative power evaluates to zoo
    hypothesis.assume(not e.has(sp.zoo, sp.nan))
    ref = FIELD.from_expr(e)
    value = sc._field_value(FIELD, e)
    assert (value.numer, value.denom) == ref.numer.cancel(ref.denom)


def test_trees_reach_the_monomial_reader():
    # each shape the property draws, read by _node as the reader intends
    index = {g: i for i, g in enumerate(GENS)}
    ring = FIELD.ring
    x, y, z, g = ring.gens
    shared = sp.Rational(-3, 2) * u**-2 * v + u**-2 * w**2 / 5
    poly, bases = sc._node(ring, index, shared)
    assert (poly, bases) == (QQ(-3, 2) * y + z**2 / 5, {x: -2})
    assert sc._monomial(index, 4, sp.Rational(2, 3) * u * G12**-2) == ((1, 0, 0, -2), QQ(2, 3))
    assert sc._monomial(index, 4, (u + v) ** 2) is None
    assert sc._monomial(index, 4, u * (v + w)) is None
