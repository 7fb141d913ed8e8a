"""diff and total_x_derivative against a reference kept here only: sympy's
tree differentiation with the chain rule on function atoms, followed by
_normalize.  The kernel differentiates on the normal form instead."""

import pytest
import sympy as sp
from sympy.core.function import AppliedUndef

from pencil_forge import symcore as sc

def _tree_diff(raw: sp.Expr, var: sp.Symbol, ctx: sc.Context) -> sp.Expr:
    atoms = sorted(raw.atoms(AppliedUndef), key=sp.default_sort_key)
    repl = {a: sp.Dummy(a.func.__name__) for a in atoms}
    masked = raw.xreplace(repl)
    total = sp.diff(masked, var)
    for a, d in repl.items():
        fa, order = ctx.classify_atom(a)
        total += sp.diff(masked, d) * fa.applied(order + 1) * sp.diff(fa.arg, var)
    return total.xreplace({d: a for a, d in repl.items()})


def reference_diff(e: sc.Expr, name: str) -> sc._NormalForm:
    return sc._normalize(_tree_diff(e.canonical, e.ctx.sym(name), e.ctx))


def reference_total_x(e: sc.Expr) -> sc._NormalForm:
    ctx, c = e.ctx, e.canonical
    total = _tree_diff(c, ctx.x, ctx)
    for f, j1, j2 in zip(ctx.field_syms, ctx.jet1_syms, ctx.jet2_syms):
        total += _tree_diff(c, f, ctx) * j1 + _tree_diff(c, j1, ctx) * j2
    return sc._normalize(total)


def _refuse(*args, **kwargs):
    raise AssertionError("must not be called")


def assert_matches(got: sc.Expr, want: sc._NormalForm):
    assert got.normal_form() == want
    assert got.canonical == want.rebuild()


@pytest.fixture
def ctx():
    return sc.Context(
        fields=("u", "v", "w"),
        parameters=("alpha",),
        functions=(("f", "-u+v"), ("h", "u*v"), ("q", "u/(1 + w)"), ("gamma", "w")),
    )


NAMES = ("u", "v", "w", "alpha")


class TestDiff:
    @pytest.mark.parametrize("text", [
        "sqrt(u^2 + v)",
        "(u + v)*sqrt(u^2 + v)/(u - w)",
        "(1 + u*sqrt(alpha*u + w))/(v - sqrt(alpha*u + w))",
        "u/sqrt(u*v)",
    ])
    def test_root_part(self, ctx, text):
        e = ctx.parse(text)
        for name in NAMES:
            assert_matches(sc.diff(e, name), reference_diff(e, name))

    @pytest.mark.parametrize("text", [
        "u^2*ln(u + v)",
        "ln(v/(1 + u))/v + alpha*ln(u)",
        "(1 + sqrt(u))*ln(u*w)",
        "ln(2) + ln(u^2 - alpha)*(w - sqrt(u)/v)",
    ])
    def test_log_part(self, ctx, text):
        e = ctx.parse(text)
        for name in NAMES:
            assert_matches(sc.diff(e, name), reference_diff(e, name))

    @pytest.mark.parametrize("text", [
        "f(-u+v)^2*u",
        "h'(u*v)/(1 + h(u*v))",
        "q(u/(1 + w))*w + q''(u/(1 + w))^2",
        "f'(-u+v)*sqrt(u)*ln(w) + gamma(w)",
    ])
    def test_atom_with_non_symbol_argument(self, ctx, text):
        e = ctx.parse(text)
        for name in NAMES:
            assert_matches(sc.diff(e, name), reference_diff(e, name))

    def test_zero_shortcut(self, ctx, monkeypatch):
        e = ctx.parse("u^2*sqrt(v)*ln(u + alpha) + f(-u+v)")
        e.normal_form()
        monkeypatch.setattr(sc, "_derive", _refuse)
        got = sc.diff(e, "w")
        assert sc.is_zero(got)
        assert got.canonical == 0
        assert got.normal_form() == reference_diff(e, "w")
        with pytest.raises(AssertionError):
            sc.diff(e, "u")


class TestTotalDerivative:
    @pytest.mark.parametrize("text", [
        "gamma(w)*u_x + f(-u+v)/v",
        "x*ln(u) + h(u*v)*sqrt(u + v)",
        "q'(u/(1 + w))*w_x^2 - x^2",
        "u_x/(v_x + w)",
    ])
    def test_with_atoms(self, ctx, text):
        e = ctx.parse(text)
        assert_matches(sc.total_x_derivative(e), reference_total_x(e))

    @pytest.mark.parametrize("text", ["u_xx + u", "f(-u+v) + v_xx", "0*w + w_xx"])
    def test_second_jets_rejected(self, ctx, text):
        with pytest.raises(sc.JetOrderError):
            sc.total_x_derivative(ctx.parse(text))

    def test_zero_shortcut(self, ctx, monkeypatch):
        e = ctx.parse("alpha^2 - 1/alpha")
        monkeypatch.setattr(sc, "_derive", _refuse)
        assert sc.total_x_derivative(e).canonical == 0


def test_no_tree_differentiation_or_normalization(ctx, monkeypatch):
    operands = [ctx.parse(text) for text in (
        "(u + v)*sqrt(u^2 + v)/(u - w)",
        "(1 + sqrt(u))*ln(u*w) + h'(u*v)/(1 + h(u*v))",
        "gamma(w)*u_x + q(u/(1 + w))/v",
    )]
    for e in operands:
        e.normal_form()
    sc._derive.cache_clear()
    monkeypatch.setattr(sp.Expr, "diff", _refuse)
    monkeypatch.setattr(sp, "diff", _refuse)
    monkeypatch.setattr(sc, "_normalize", _refuse)
    for e in operands:
        for name in NAMES:
            sc.diff(e, name)
        sc.total_x_derivative(e)
