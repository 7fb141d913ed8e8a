"""Properties of antiderivative on random integrands: diff undoes it on the
integrable class (denominators that split into linear factors in the
variable, with parameters, another field and a function atom in the
coefficients, optionally times a root free of the variable), and an
irreducible quadratic factor in the variable raises NotIntegrableError.
The seed is fixed and the example count bounded."""

import pytest

from pencil_forge import symcore as sc

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ACTX = sc.Context(fields=("u", "v"), parameters=("alpha", "beta"), functions=(("f", "v"),))
COEFFS = ("1", "-2", "3", "alpha", "beta", "v", "f(v)", "alpha*v")
LEADS = ("1", "2", "-3", "alpha", "v")
QUADRATICS = ("v^2 + 1", "v^2 - 2", "v^2 + u", "alpha*v^2 + beta", "v^2 + alpha*v + u",
              "v^2 + u^2 + 1")

SETTINGS = hypothesis.settings(
    max_examples=30, derandomize=True, deadline=None, database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)


def _polynomial(draw, var: str, coeffs, degree: int) -> str:
    return " + ".join(f"({draw(st.sampled_from(coeffs))})*{var}^{k}" for k in range(degree + 1))


def _linear_factors(draw, var: str, constants) -> list[str]:
    return [
        f"({draw(st.sampled_from(LEADS))}*{var} + {draw(st.sampled_from(constants))})"
        f"^{draw(st.integers(1, 3))}"
        for _ in range(draw(st.integers(1, 2)))
    ]


@st.composite
def integrable(draw, var):
    """P/(c * L1^k1 * L2^k2) with the L linear in var, optionally times a root."""
    num = _polynomial(draw, var, COEFFS, draw(st.integers(0, 3)))
    den = "*".join([draw(st.sampled_from(COEFFS))]
                   + _linear_factors(draw, var, ("0", "1", "-1", "beta", "v", "f(v)")))
    text = f"({num})/({den})"
    if draw(st.booleans()):
        text += "*sqrt(1 + v^2)"
    return text


@st.composite
def with_quadratic(draw):
    """P/(Q * L...) in v with Q irreducible and P of degree 1, so Q stays."""
    num = f"({draw(st.sampled_from(('1', 'u', 'alpha')))})*v + {draw(st.sampled_from(COEFFS[:6]))}"
    factors = [f"({draw(st.sampled_from(QUADRATICS))})^{draw(st.integers(1, 2))}"]
    if draw(st.booleans()):
        factors += _linear_factors(draw, "v", ("0", "1", "beta", "u"))
    return f"({num})/({'*'.join(factors)})"


def _expr(text: str) -> sc.Expr:
    e = ACTX.parse(text)
    hypothesis.assume(not sc.is_zero(e))
    return e


@pytest.mark.parametrize("var", ["u", "x"])
@SETTINGS
@hypothesis.given(data=st.data())
def test_diff_undoes_antiderivative(var, data):
    e = _expr(data.draw(integrable(var)))
    assert sc.is_zero(sc.diff(sc.antiderivative(e, var), var) - e)


@SETTINGS
@hypothesis.given(text=with_quadratic())
def test_irreducible_quadratic_raises(text):
    with pytest.raises(sc.NotIntegrableError, match="degree > 1 in v"):
        sc.antiderivative(_expr(text), "v")
