"""Properties of diff and total_x_derivative on random values built from
polynomials, a root, a logarithm and a function atom: the Leibniz and
quotient rules, and agreement with the reference in test_derivative.py.
The seed is fixed and the example count bounded."""

import pytest

from pencil_forge import symcore as sc
from test_derivative import assert_matches, reference_diff, reference_total_x

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PCTX = sc.Context(fields=("u", "v"), parameters=("alpha",), functions=(("f", "u - v"),))
FACTORS = ("u", "v", "alpha", "u_x", "f(u - v)", "f'(u - v)")


@st.composite
def polynomials(draw):
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        coeff = draw(st.integers(-3, 3).filter(bool))
        factors = draw(st.lists(st.sampled_from(FACTORS), max_size=2))
        terms.append("*".join([str(coeff)] + factors))
    return "(" + " + ".join(terms) + ")"


@st.composite
def values(draw, logs=True):
    """num/den, optionally times sqrt(u + 2*v) and, if logs, ln(u + alpha)."""
    text = f"{draw(polynomials())}/{draw(polynomials())}"
    if draw(st.booleans()):
        text += "*sqrt(u + 2*v)"
    if logs and draw(st.booleans()):
        text += "*ln(u + alpha)"
    return text


def _expr(text: str) -> sc.Expr:
    try:
        e = PCTX.parse(text)
        e.normal_form()
    except sc.NormalizationError:  # a denominator that vanishes
        hypothesis.reject()
    return e


SETTINGS = hypothesis.settings(
    max_examples=25, derandomize=True, deadline=None, database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
DERIVATIONS = {
    "d/du": lambda e: sc.diff(e, "u"),
    "d/dalpha": lambda e: sc.diff(e, "alpha"),
    "D_x": sc.total_x_derivative,
}


@pytest.mark.parametrize("name", DERIVATIONS)
@SETTINGS
@hypothesis.given(f=values(), g=values(logs=False))
def test_leibniz_and_quotient_rules(name, f, g):
    D = DERIVATIONS[name]
    f, g = _expr(f), _expr(g)
    hypothesis.assume(not sc.is_zero(g))
    assert sc.is_zero(D(f * g) - (D(f) * g + f * D(g)))
    assert sc.is_zero(D(f / g) - (D(f) * g - f * D(g)) / g**2)


@SETTINGS
@hypothesis.given(f=values())
def test_diff_matches_reference(f):
    f = _expr(f)
    for name in ("u", "v", "alpha", "u_x"):
        assert_matches(sc.diff(f, name), reference_diff(f, name))
    assert_matches(sc.total_x_derivative(f), reference_total_x(f))
