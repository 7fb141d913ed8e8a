"""The factored tensor algebra of diffgeo: Christoffel symbols, curvature
and the checks that read them, over a per-metric basis of irreducible
factors.

Pinned here: every denominator the connection and the curvature reach is a
product of basis factors; the algebra runs no GCD, nor do the connection
checks of validate_nonlocal and the pencil torsion on g9; a symbol table or
isometry outside the algebra takes the tree path with the same report; on
random rational metrics, some with a square-root entry, the emitted entries
carry the normal forms and canonical trees of the Expr formulas each entry
was normalized from before (the tree path, forced by a metric whose
factored algebra is switched off); and with random polynomial isometries
validate_nonlocal and pair_check give the same reports on both paths.  The
hypothesis seeds are fixed and the example counts bounded."""

import random

import pytest
from sympy.polys.fields import FracField
from sympy.polys.rings import PolyElement

from pencil_forge import catalog as cat
from pencil_forge import diffgeo as dg
from pencil_forge import operators as ops
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


def _count_gcd_work(monkeypatch) -> list:
    """Names of the PolyElement.cancel and FracField.new calls made from now on."""
    return _count_calls(monkeypatch, ((PolyElement, "cancel"), (FracField, "new")))


def _count_exports(monkeypatch) -> list:
    """Names of the symcore._sympy_fraction and PolyElement.as_expr calls,
    the steps that turn a value into sympy trees, made from now on."""
    return _count_calls(monkeypatch, ((sc, "_sympy_fraction"), (PolyElement, "as_expr")))


def _count_calls(monkeypatch, targets) -> list:
    """Names of the calls of each (owner, name) in targets made from now on."""
    calls = []
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, original=original, name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_tensor_algebra_runs_no_gcd(monkeypatch):
    """levi_civita and riemann on g9, after the determinant that the
    nondegeneracy check computes first, cancel nothing."""
    g = cat.builtin_case("g9").metric()
    assert not g.is_degenerate() and g.is_symmetric()
    calls = _count_gcd_work(monkeypatch)
    dg.levi_civita(g)
    dg.riemann(g).raised
    assert dg.constant_curvature(g) is not None
    assert calls == []
    assert len(g._algebra().bases) == 4


def test_connection_checks_run_no_gcd(monkeypatch):
    """On g9, with the connection and curvature computed, the
    connection_symmetric, metric_compatible, killing and cyclic checks of
    validate_nonlocal and the pencil torsion against eta cancel nothing.
    Each check's calls are those made since the previous check was
    decided."""
    case = cat.builtin_case("g9")
    g = case.metric()
    assert not g.is_degenerate() and g.is_symmetric()
    dg.levi_civita(g)
    dg.riemann(g).raised
    pencil = pc.Pencil(g, case.eta().metric)
    dg.levi_civita(pencil.gt)
    op = case.operator()
    calls = _count_gcd_work(monkeypatch)
    decided = [("start", 0)]
    add = ops.ValidationReport.add

    def recorded(self, name, *args, **kwargs):
        decided.append((name, len(calls)))
        return add(self, name, *args, **kwargs)

    monkeypatch.setattr(ops.ValidationReport, "add", recorded)
    assert ops.validate_nonlocal(op).passed
    spent = {name: calls[before:count]
             for (_, before), (name, count) in zip(decided, decided[1:])}
    for name in ("connection_symmetric", "metric_compatible", "killing", "cyclic"):
        assert spent[name] == [], name
    del calls[:]
    assert pc._almost(pencil)
    assert calls == []


def test_emitted_entries_are_exported_when_read(monkeypatch):
    """levi_civita and riemann on g9 turn no entry into sympy trees; an
    entry's normal form and tree are built when it is read."""
    g = cat.builtin_case("g9").metric()
    assert not g.is_degenerate() and g.is_symmetric()
    calls = _count_exports(monkeypatch)
    conn, curv = dg.levi_civita(g), dg.riemann(g)
    tables = (conn.lower, conn.raised, curv.mixed, curv.raised)
    assert calls == []
    entries = [e for table in tables for e in _entries(table)]
    assert all(e._nf is None and e._canonical is None for e in entries)
    entry = conn.raised[0][0][0]
    assert not sc.is_zero(entry) and calls == []
    assert entry.raw == entry.canonical and entry._nf is not None
    assert calls


def test_lifted_checks_export_nothing(monkeypatch):
    """On g9 with the oracle off, with the connections and curvature
    computed and the case's operators built, the connection_symmetric,
    metric_compatible, killing and cyclic checks of validate_nonlocal and
    all of pair_check turn no value into sympy trees: their zero tests read
    numerators, and the trees they were computed from stay unbuilt."""
    monkeypatch.setattr(sc, "_STATE", sc._ProbeState(0))
    case = cat.builtin_case("g9")
    g = case.metric()
    assert not g.is_degenerate() and g.is_symmetric()
    dg.levi_civita(g)
    dg.riemann(g).raised
    op, eta = case.operator(), case.eta()
    dg.levi_civita(eta.metric)
    calls = _count_exports(monkeypatch)
    decided = [("start", 0)]
    add = ops.ValidationReport.add

    def recorded(self, name, *args, **kwargs):
        decided.append((name, len(calls)))
        return add(self, name, *args, **kwargs)

    monkeypatch.setattr(ops.ValidationReport, "add", recorded)
    assert ops.validate_nonlocal(op).passed
    spent = {name: calls[before:count]
             for (_, before), (name, count) in zip(decided, decided[1:])}
    for name in ("connection_symmetric", "metric_compatible", "killing", "cyclic"):
        assert spent[name] == [], name
    del calls[:]
    assert pc.pair_check(eta, op).passed
    assert calls == []


def test_lift_outside_the_algebra_is_none():
    """Every field and parameter is a generator, used in the entries or
    not; a denominator factor outside the basis, a foreign radicand or a
    logarithm lifts to None."""
    case = cat.builtin_case("g1")
    g, P = case.metric(), case.context().parse
    alg = g._algebra()
    assert {"u", "v", "alpha", "beta"} <= {str(s) for s in alg.gens}
    assert alg.lift(P("u*alpha + beta/v")) is not None
    for text in ("1/(u + 1)", "sqrt(u + 1)", "ln(v)"):
        assert alg.lift(P(text)) is None, text
    ctx = sc.Context(fields=("u", "v", "w"))
    one, zero = ctx.number(1), ctx.number(0)
    identity = dg.Metric(ctx, dg.tensor(3, 2, lambda i, j: one if i == j else zero))
    assert identity._algebra().lift(ctx.parse("v*w + u")) is not None


def _checks(report) -> list:
    return [(c.name, c.status, c.witness) for c in report.checks]


def test_isometry_outside_the_basis_keeps_the_report():
    """g1 with the isometry (1/(u+1), 0): u + 1 is outside g1's basis, so
    the isometry does not lift and Killing and the cyclic condition take
    the tree path, with the report the tree checks gave."""
    case = cat.builtin_case("g1")
    P = case.context().parse
    op = ops.NonlocalIsometryOp(case.metric(), case.operator().gamma, case.c(),
                                case.epsilon(), dg.VectorField((P("1/(u+1)"), P("0"))))
    assert _checks(ops.validate_nonlocal(op)) == [
        ("metric_symmetric", "pass", None),
        ("connection_symmetric", "pass", None),
        ("metric_compatible", "pass", None),
        ("curvature_constant", "pass", None),
        ("killing", "fail", "Lie derivative component (1,1) = 2*alpha/(v + 2*u*v + v*u^2)"),
        ("cyclic", "fail", "cyclic sum (1,1,1) = -3*alpha/(v + 3*u*v + 3*v*u^2 + v*u^3)"),
        ("local_part_valid", "pass", None),
    ]
    assert _checks(pc.pair_check(case.eta(), op)) == [
        ("pencil_compatible", "pass", None),
        ("eta_killing", "fail", "Lie derivative component (1,2) = (1 + 2*u + u^2)^(-1)"),
        ("metric_killing", "fail", "Lie derivative component (1,1) = 2*alpha/(v + 2*u*v + v*u^2)"),
    ]


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


# polynomial isometries, of which v, u*v and a*v reach a field or parameter
# the entries may lack; 1/(u + 3) has a denominator outside every basis
ISOMETRY = ("0", "1", "u", "v", "u*v", "a*v", "v^2 + 1", "u - v", "1/(u + 3)")


def _reports(g, f):
    """validate_nonlocal and pair_check of the operator of g and f, or the
    exception each raised."""
    op = ops.NonlocalIsometryOp.from_metric(g, f, epsilon=g.ctx.number(1))
    out = []
    for run in (lambda: ops.validate_nonlocal(op),
                lambda: pc.pair_check(ops.ConstantOp.antidiagonal(g.ctx), op)):
        try:
            out.append(_checks(run()))
        except Exception as exc:  # noqa: BLE001 -- compared, not raised
            out.append((type(exc).__name__, str(exc)))
    return out


@hypothesis.settings(
    max_examples=16, derandomize=True, deadline=None, database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
@hypothesis.given(g=metrics(), texts=st.tuples(*[st.sampled_from(ISOMETRY)] * 2))
def test_checks_match_the_tree_path(g, texts):
    hypothesis.assume(not g.is_degenerate())
    trees = dg.Metric(g.ctx, g.entries)
    trees._factored = None
    f = dg.VectorField(tuple(g.ctx.parse(t) for t in texts))
    assert g._algebra() is not None
    assert _reports(g, f) == _reports(trees, f)
