"""The factored tensor algebra of diffgeo: Christoffel symbols and curvature
over a per-metric basis of irreducible factors.

Pinned here: every denominator the connection and the curvature reach is a
product of basis factors; the algebra runs no GCD; and on random rational
metrics, some with a square-root entry, the emitted entries carry the
normal forms and canonical trees of the Expr formulas each entry was
normalized from before (the tree path, forced by a metric whose factored
algebra is switched off).  The hypothesis seed is fixed and the example
count bounded."""

import random

import pytest
from sympy.polys.fields import FracField
from sympy.polys.rings import PolyElement

from pencil_forge import catalog as cat
from pencil_forge import diffgeo as dg
from pencil_forge import pencil as pc
from pencil_forge import symcore as sc

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _bianchi_metrics():
    """The 20 random rational metrics of acceptance criterion 6c."""
    rng = random.Random(20250810)
    ctx = sc.Context(fields=("u", "v"))
    P = ctx.parse
    out = []
    while len(out) < 20:
        a, b, c, d = (rng.randint(1, 4), rng.randint(0, 3),
                      rng.randint(1, 4), rng.randint(0, 2))
        g = dg.Metric(ctx, [
            [P(f"{a} + {d}*u^2"), P(f"{b}*u*v")],
            [P(f"{b}*u*v"), P(f"{c} + v^2")],
        ])
        if not g.is_degenerate():
            out.append((f"6c-{len(out)}", g))
    return out


def _metrics():
    out = []
    for case in cat.builtin_cases():
        eta = dg.Metric(case.context(), case.eta().entries)
        out.append((case.name, case.metric()))
        out.append((f"{case.name}-pencil", pc.Pencil(case.metric(), eta).combined))
    return out + _bianchi_metrics()


def _entries(table):
    if isinstance(table, tuple):
        for t in table:
            yield from _entries(t)
    else:
        yield table


@pytest.mark.parametrize("name,g", _metrics(), ids=lambda x: x if isinstance(x, str) else "")
def test_denominators_are_products_of_basis_factors(name, g):
    alg = g._algebra()
    assert alg is not None, name
    for base in alg.bases:
        _, factors = base.factor_list()
        assert [f.monic() for f, _ in factors] == [base], f"{name}: {base} is not irreducible"
    conn, curv = dg.levi_civita(g), dg.riemann(g)
    for table in (conn.lower, conn.raised, curv.mixed, curv.raised):
        for e in _entries(table):
            for _, (_, den) in e.normal_form().parts:
                alg.split(alg.poly(den))  # raises on a factor outside the basis


def test_tensor_algebra_runs_no_gcd(monkeypatch):
    """levi_civita and riemann on g9, after the determinant that the
    nondegeneracy check computes first, cancel nothing."""
    g = cat.builtin_case("g9").metric()
    assert not g.is_degenerate() and g.is_symmetric()
    calls = []
    for owner, name in ((PolyElement, "cancel"), (FracField, "new")):
        original = getattr(owner, name)

        def counted(*args, original=original, name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    dg.levi_civita(g)
    dg.riemann(g).raised
    assert dg.constant_curvature(g) is not None
    assert calls == []
    assert len(g._algebra().bases) == 4


RATIONAL = ("0", "1", "2", "u", "v", "u + 1", "u*v", "u^2 + 1", "1/v", "v/(u + 2)",
            "u/(v^2 + 1)", "a*u", "a/(u + v)")
# with a root entry the others stay polynomial: the tree path the entries
# are compared with takes seconds on roots over rational entries
POLYNOMIAL = ("0", "1", "2", "u", "v", "u + 1", "u*v", "a*u")
ROOTS = ("sqrt(u + 2)", "u*sqrt(u + 2)", "1/sqrt(u + 2)", "sqrt(u*v + 1)")


@st.composite
def metrics(draw):
    ctx = sc.Context(fields=("u", "v"), parameters=("a",), assume_nonzero=("a",))
    if draw(st.booleans()):
        texts = [draw(st.sampled_from(RATIONAL)) for _ in range(3)]
    else:
        texts = [draw(st.sampled_from(POLYNOMIAL)) for _ in range(3)]
        texts[draw(st.integers(0, 2))] = draw(st.sampled_from(ROOTS))
    g00, g01, g11 = (ctx.parse(t) for t in texts)
    return dg.Metric(ctx, [[g00, g01], [g01, g11]])


@hypothesis.settings(
    max_examples=16, derandomize=True, deadline=None, database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
@hypothesis.given(g=metrics())
def test_emitted_entries_match_the_tree_path(g):
    hypothesis.assume(not g.is_degenerate())
    trees = dg.Metric(g.ctx, g.entries)
    trees._factored = None
    assert g._algebra() is not None
    for got, want in (
        (dg.levi_civita(g).lower, dg.levi_civita(trees).lower),
        (dg.levi_civita(g).raised, dg.levi_civita(trees).raised),
        (dg.riemann(g).mixed, dg.riemann(trees).mixed),
        (dg.riemann(g).raised, dg.riemann(trees).raised),
    ):
        for a, b in zip(_entries(got), _entries(want)):
            assert a.normal_form() == b.normal_form()
            assert a.canonical == b.canonical and a.raw == b.raw
    assert repr(dg.constant_curvature(g)) == repr(dg.constant_curvature(trees))
