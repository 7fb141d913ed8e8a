"""Property: symcore._exact_quotient(n, b) is n/b when b divides n and
None otherwise, as divmod on the same ring says.  Dividends are drawn
both as products q*b, so exact cases are common, and as such products
plus a perturbation.  The seed is fixed and the example count bounded."""

import pytest
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from pencil_forge import symcore as sc

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RING, *GENS = ring("x, y, z, w", QQ, lex)


@st.composite
def polynomials(draw, max_terms=4):
    p = RING.zero
    for _ in range(draw(st.integers(1, max_terms))):
        coeff = QQ(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))
        mono = RING.one
        for g in GENS:
            mono *= g ** draw(st.integers(0, 2))
        p += coeff * mono
    return p


@hypothesis.settings(
    max_examples=200, derandomize=True, deadline=None, database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
@hypothesis.given(q=polynomials(), b=polynomials(), r=polynomials(max_terms=2),
                  perturb=st.booleans())
def test_exact_quotient_agrees_with_divmod(q, b, r, perturb):
    hypothesis.assume(b and not b.is_ground)
    n = q * b + r if perturb else q * b
    want, rem = divmod(n, b)
    assert sc._exact_quotient(n, b) == (None if rem else want)


def test_failed_necessary_condition_skips_the_heap(monkeypatch):
    def refuse(*args):
        raise AssertionError("heap division started")

    monkeypatch.setattr(sc.heapq, "heappush", refuse)
    x, y, z, w = GENS
    # degrees fit, but b's lex-last monomial y does not divide n's, x
    assert sc._exact_quotient(x**2 * y + x, x + y) is None
    # the lex-last monomials divide (y | y*z), but z has degree 3 in b
    assert sc._exact_quotient(x**2 + y * z, x * z**3 + y) is None
