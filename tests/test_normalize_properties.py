"""Properties: normalization is idempotent, and parse∘render is the
identity.  The canonical tree of a normal form, nf.rebuild(), normalizes
back to nf, and the rendered text of a value parses to a value with the
same normal form.  The trees are random rational functions with function
atoms in them, plus a multiple of one square root, a multiple of one
logarithm, both, and a root in a denominator; parse∘render also meets
reciprocals of sums, which render as a lone negative power.  The seed is
fixed and the example count bounded."""

import pytest
import sympy as sp

from pencil_forge import symcore as sc

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CTX = sc.Context(
    fields=("u", "v"),
    parameters=("alpha",),
    functions=(("g12", "v"), ("f", "-u+v")),
)
u, v, alpha = sp.symbols("u v alpha")
GENS = (u, v, alpha, CTX.atom("g12").applied(0), CTX.atom("f").applied(1))
RADICANDS = (u + v, u * v + 1, alpha - u**2)
LOG_ARGS = (u, u / v, u + alpha)


@st.composite
def rationals(draw):
    """A sum of one to three monomials, or a quotient of two such sums."""
    def poly():
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            sign = draw(st.sampled_from((1, -1)))
            coeff = sp.Rational(sign * draw(st.integers(1, 4)), draw(st.integers(1, 3)))
            factors = draw(st.lists(st.sampled_from(GENS), max_size=2))
            terms.append(sp.Mul(coeff, *factors))
        return sp.Add(*terms)

    return poly() / poly() if draw(st.booleans()) else poly()


@st.composite
def reciprocals(draw):
    """1/p^k for p a sum of distinct generators and a constant: a value
    whose canonical tree is a lone negative power."""
    gens = draw(st.lists(st.sampled_from(GENS), min_size=1, max_size=3, unique=True))
    return sp.Add(*gens, draw(st.integers(0, 3))) ** -draw(st.integers(1, 2))


@st.composite
def trees(draw):
    root = sp.sqrt(draw(st.sampled_from(RADICANDS)))
    log = sp.log(draw(st.sampled_from(LOG_ARGS)))
    e = draw(rationals())
    if draw(st.booleans()):
        e += draw(rationals()) * root
    if draw(st.booleans()):
        e += draw(rationals()) * log
    if draw(st.booleans()):
        e /= draw(rationals()) + root
    return e


@hypothesis.settings(
    max_examples=80, derandomize=True, deadline=None, database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
@hypothesis.given(e=trees())
def test_normalize_is_idempotent(e):
    hypothesis.assume(not e.has(sp.zoo, sp.nan))
    try:
        nf = sc._normalize.__wrapped__(e)
    except sc.NormalizationError:
        hypothesis.assume(False)  # a denominator that vanishes, say
    assert sc._normalize.__wrapped__(nf.rebuild()) == nf


@hypothesis.settings(
    max_examples=40, derandomize=True, deadline=None, database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
@hypothesis.given(e=st.one_of(trees(), reciprocals()))
def test_parse_render_is_identity(e):
    hypothesis.assume(not e.has(sp.zoo, sp.nan))
    value = sc.Expr(CTX, e)
    try:
        text = sc.render(value)
    except sc.NormalizationError:
        hypothesis.assume(False)  # a denominator that vanishes, say
    assert "#" not in text
    assert CTX.parse(text).normal_form() == value.normal_form()
