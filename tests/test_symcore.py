"""Kernel tests: grammar, normal form, calculus, zero test, probes."""

import random
import types

import pytest
import sympy as sp

from pencil_forge import symcore as sc


@pytest.fixture
def ctx():
    return sc.Context(
        fields=("u", "v", "w"),
        parameters=("alpha", "beta"),
        assume_nonzero=("alpha - beta^2",),
    )


@pytest.fixture
def gctx():
    return sc.Context(fields=("u", "v", "w"), functions=(("gamma", "w"),))


class TestParse:
    def test_power_quotient_tree(self, ctx):
        e = ctx.parse("v^3/w^2")
        num, den = sp.fraction(e.canonical)
        assert num == sp.Symbol("v") ** 3
        assert den == sp.Symbol("w") ** 2

    def test_sqrt_node(self, ctx):
        e = ctx.parse("sqrt(u*v)")
        assert e.canonical == sp.sqrt(sp.Symbol("u") * sp.Symbol("v"))

    def test_unbalanced_paren_position(self):
        ctx = sc.Context(fields=("a", "v"))
        with pytest.raises(sc.ParseError) as exc:
            ctx.parse("a/(v")
        assert exc.value.position == 4

    @pytest.mark.parametrize("text, position", [
        ("(u+v)^100000 - 1", 7), ("u^(-65)", 5), ("u^-65", 4),
    ])
    def test_exponent_cap_position(self, ctx, text, position):
        with pytest.raises(sc.ParseError) as exc:
            ctx.parse(text)
        assert exc.value.position == position
        assert "exceeds 64" in str(exc.value)

    def test_exponent_at_cap_parses(self, ctx):
        assert ctx.parse("u^64*u^(-64)").equals(ctx.number(1))

    @pytest.mark.parametrize("text, position, exponent", [
        ("((u+v)^64)^64", 11, 4096),   # nested powers multiply
        ("(u+v)^64*(u+v)^64", 9, 128),  # sympy merges equal factors
        ("u^64/u^(-64)", 5, 128),
        ("(u*v^64)^64", 9, 4096),       # the power distributes over a product
    ])
    def test_built_exponent_cap_position(self, ctx, text, position, exponent):
        with pytest.raises(sc.ParseError) as exc:
            ctx.parse(text)
        assert exc.value.position == position
        assert f"exponent {exponent} exceeds 64" in str(exc.value)

    def test_numeric_tower_rejected_before_evaluation(self, ctx):
        # the innermost power over the bit cap is rejected, so no 4097-bit
        # (let alone 262145-bit) integer is built
        with pytest.raises(sc.ParseError) as exc:
            ctx.parse("((2^64)^64)^64")
        assert exc.value.position == 8
        assert "exceeds 1024 bits" in str(exc.value)

    @pytest.mark.parametrize("text, value", [
        ("((u+v)^8)^8", "(u+v)^64"),
        ("2^64*(3*u)^64", "18446744073709551616*3^64*u^64"),
        ("sqrt(2)^64", "4294967296"),
        ("(1/2)^64", "1/18446744073709551616"),
    ])
    def test_powers_within_caps_parse(self, ctx, text, value):
        assert ctx.parse(text).equals(ctx.parse(value))

    @pytest.mark.parametrize("text, position, degree", [
        ("((u+v)^64 + 1)^64", 15, 4096),        # a sum between two powers
        ("(u^64 + v)*(v^64 + 1)*w", 22, 129),   # a product adds degrees
        ("u/(v^2 + w)^64", 2, 129),             # so does a quotient
        ("sqrt(u^3 + v)^64", 14, 192),          # a root counts its radicand
    ])
    def test_degree_cap_position(self, ctx, text, position, degree):
        with pytest.raises(sc.ParseError) as exc:
            ctx.parse(text)
        assert exc.value.position == position
        assert f"degree {degree} exceeds 128" in str(exc.value)

    @pytest.mark.parametrize("text", [
        "((u+v)^16 + 1)^8",                     # degree 128
        "(u^64 + 1)*(v^64 + 1) - 1",
        "ln((u+v)^64)^64",                      # a logarithm counts 1
    ])
    def test_degree_at_cap_parses(self, ctx, text):
        ctx.parse(text)

    def test_unknown_symbol_named(self, ctx):
        with pytest.raises(sc.UnknownSymbolError) as exc:
            ctx.parse("u + q")
        assert exc.value.name == "q"
        assert exc.value.position == 5

    def test_render_round_trip(self, ctx):
        samples = [
            "v^3/w^2",
            "sqrt(u*v) + alpha/(2*v^2)",
            "1/2 - 3*u*v + beta^2/(u - v)",
            "ln(u) - x^2*u",
            "u^(-2) + (u + v)^3",
        ]
        for text in samples:
            e = ctx.parse(text)
            again = ctx.parse(sc.render(e))
            assert e.equals(again), text

    def test_rational_literals(self, ctx):
        e = ctx.parse("3/4 - 1/4")
        assert e.is_rational_constant() and e.equals(ctx.parse("1/2"))

    def test_function_application_requires_declared_argument(self, gctx):
        with pytest.raises(sc.ParseError):
            gctx.parse("gamma(v)")
        e = gctx.parse("gamma'(w)")
        assert e.raw == gctx.atom("gamma").applied(1)


class TestDiff:
    def test_square(self, ctx):
        assert sc.diff(ctx.parse("u^2"), "u").equals(ctx.parse("2*u"))

    def test_quotient(self, ctx):
        assert sc.diff(ctx.parse("alpha/v"), "v").equals(ctx.parse("-alpha/v^2"))

    def test_sqrt_chain_rule(self, ctx):
        got = sc.diff(ctx.parse("sqrt(u*v)"), "u")
        want = ctx.parse("v") / (2 * sc.sqrt(ctx.parse("u*v")))
        assert got.equals(want)

    def test_commutes(self, ctx, gctx):
        samples = [
            ctx.parse("(u + v)^3/(w - 1)"),
            ctx.parse("sqrt(u*v) * (alpha + u)"),
            gctx.parse("gamma(w)*v^2 + gamma'(w)*u"),
        ]
        for e in samples:
            c = e.ctx
            for a in ("u", "v", "w"):
                for b in ("u", "v", "w"):
                    lhs = sc.diff(sc.diff(e, a), b)
                    rhs = sc.diff(sc.diff(e, b), a)
                    assert sc.is_zero(lhs - rhs)

    def test_atom_chain_rule(self):
        ctx = sc.Context(fields=("u", "v"), functions=(("f", "-u+v"),))
        e = ctx.parse("f(-u+v)")
        assert sc.diff(e, "u").equals(-ctx.parse("f'(-u+v)"))
        assert sc.diff(e, "v").equals(ctx.parse("f'(-u+v)"))


class TestTotalDerivative:
    def test_paper_flux(self, ctx):
        got = sc.total_x_derivative(ctx.parse("-v^3/(2*w^2)"))
        want = ctx.parse("-(3*v^2/(2*w^2))*v_x + (v^3/w^3)*w_x")
        assert got.equals(want)

    def test_explicit_x(self, ctx):
        assert sc.total_x_derivative(ctx.parse("x^2")).equals(ctx.parse("2*x"))

    def test_log(self, ctx):
        got = sc.total_x_derivative(ctx.parse("ln(u)"))
        assert got.equals(ctx.parse("u_x/u"))

    def test_second_jets_rejected(self, ctx):
        with pytest.raises(sc.JetOrderError):
            sc.total_x_derivative(ctx.parse("u_xx + u"))

    def test_leibniz(self, ctx):
        e = ctx.parse("u*v + x*w")
        f = ctx.parse("w^2 - u_x")
        lhs = sc.total_x_derivative(e * f)
        rhs = e * sc.total_x_derivative(f) + f * sc.total_x_derivative(e)
        assert sc.is_zero(lhs - rhs)

    def test_atom_arguments_follow_chain(self, gctx):
        # d/dx of gamma(w) contributes gamma'(w) w_x
        got = sc.total_x_derivative(gctx.parse("gamma(w)"))
        want = gctx.parse("gamma'(w)*w_x")
        assert got.equals(want)


class TestIsZero:
    def test_binomial_identity(self, ctx):
        assert sc.is_zero(ctx.parse("(u+v)^2 - u^2 - 2*u*v - v^2"))

    def test_radical_square(self, ctx):
        assert sc.is_zero(ctx.parse("sqrt(u*v)*sqrt(u*v) - u*v"))

    def test_chazy_solution(self, ctx):
        g = ctx.parse("-2/w")
        g1 = sc.diff(g, "w")
        g2 = sc.diff(g1, "w")
        g3 = sc.diff(g2, "w")
        assert sc.is_zero(g3 - 6 * g * g2 + 9 * g1 * g1)

    def test_nonzero(self, ctx):
        assert not sc.is_zero(ctx.parse("u - v"))

    def test_radical_component_split(self, ctx):
        # a + b*sqrt(s) vanishes only when both components vanish
        assert not sc.is_zero(ctx.parse("u + sqrt(v)"))
        assert not sc.is_zero(ctx.parse("sqrt(v) - sqrt(4*v)/2") + ctx.parse("u"))
        assert sc.is_zero(ctx.parse("sqrt(4*v) - 2*sqrt(v)"))

    def test_two_radicands_error(self, ctx):
        with pytest.raises(sc.MultipleRadicandsError):
            sc.is_zero(ctx.parse("sqrt(u) + sqrt(v)"))

    def test_log_atoms_independent(self, ctx):
        assert not sc.is_zero(ctx.parse("ln(2*u) - ln(2) - ln(u)"))
        assert sc.is_zero(ctx.parse("3*ln(u) - ln(u) - 2*ln(u)"))

    def test_rationalized_denominator(self, ctx):
        e = ctx.parse("1/(u + sqrt(v)) - (u - sqrt(v))/(u^2 - v)")
        assert sc.is_zero(e)


class TestNormalization:
    def test_idempotent(self, ctx):
        samples = [
            "(u^2 - v^2)/(u - v) + sqrt(4*u^2*v)",
            "ln(u/v) * (alpha - beta)/(u + v)",
            "(u + sqrt(u*v))^2/(u - sqrt(u*v))",
        ]
        for text in samples:
            e = ctx.parse(text)
            n1 = e.normalized()
            n2 = n1.normalized()
            assert n1 == n2

    def test_equal_trees_share_one_normal_form(self, ctx):
        text = "(u^2 - v^2)/(u - v) + sqrt(4*u^2*v)"
        assert ctx.parse(text).normal_form() is ctx.parse(text).normal_form()

    def test_rejection_raises_on_every_call(self, ctx):
        for _ in range(3):
            with pytest.raises(sc.NormalizationError):
                ctx.parse("u/((u+v)^2 - u^2 - 2*u*v - v^2)").normal_form()

    def test_division_by_zero_rejected(self, ctx):
        with pytest.raises(sc.NormalizationError):
            sc.is_zero(ctx.parse("1/0"))
        with pytest.raises(sc.NormalizationError):
            sc.is_zero(ctx.parse("u/(v - v)"))

    def test_hidden_zero_denominator_rejected(self, ctx):
        with pytest.raises(sc.NormalizationError):
            sc.is_zero(ctx.parse("u/((u+v)^2 - u^2 - 2*u*v - v^2)"))

    def test_nonlinear_log_rejected(self, ctx):
        with pytest.raises(sc.NonlinearLogarithmError):
            sc.is_zero(ctx.parse("ln(u)*ln(u)"))
        with pytest.raises(sc.NonlinearLogarithmError):
            sc.is_zero(ctx.parse("1/ln(u)"))


class TestAntiderivative:
    def test_inverse_square(self, ctx):
        assert sc.antiderivative(ctx.parse("1/u^2"), "u").equals(ctx.parse("-1/u"))

    def test_simple_pole(self, ctx):
        assert sc.antiderivative(ctx.parse("1/u"), "u").equals(ctx.parse("ln(u)"))

    def test_polynomial_in_x(self, ctx):
        assert sc.antiderivative(ctx.parse("-2*x"), "x").equals(ctx.parse("-x^2"))

    def test_content_factor(self, ctx):
        got = sc.antiderivative(ctx.parse("-alpha/(2*u^2)"), "u")
        assert got.equals(ctx.parse("alpha/(2*u)"))

    def test_irreducible_quadratic_rejected(self, ctx):
        with pytest.raises(sc.NotIntegrableError):
            sc.antiderivative(ctx.parse("1/(u^2 + v)"), "u")

    def test_roundtrip_property(self, ctx):
        samples = [
            "u^3 - 2*u + alpha",
            "1/(u - v)",
            "(3*u^2 + v)/(2*w)",
            "1/(2*u) + 1/(u - 1)^2",
            "x^2*v - 1/x",
        ]
        for text in samples:
            e = ctx.parse(text)
            var = "u" if e.depends_on("u") else "x"
            E = sc.antiderivative(e, var)
            assert sc.is_zero(sc.diff(E, var) - e), text


class TestSubstitute:
    def test_function_binding(self, gctx):
        e = gctx.parse("-v^3*gamma'(w)/4")
        got = sc.substitute(e, {"gamma": gctx.parse("-2/w")})
        assert got.equals(gctx.parse("-v^3/(2*w^2)"))

    def test_point_evaluation(self, ctx):
        got = sc.substitute(ctx.parse("alpha/v"), {
            "u": ctx.number(1), "v": ctx.number(1),
        })
        assert got.equals(ctx.parse("alpha"))

    def test_potential_variables(self):
        ctx = sc.Context(fields=("u", "v", "w"))
        zctx = ctx.extend(parameters=("z_t", "z_x"))
        got = sc.substitute(zctx.parse("v^3/w^2"), {
            "v": zctx.parse("z_t"), "w": zctx.parse("z_x"),
        })
        assert got.equals(zctx.parse("z_t^3/z_x^2"))

    def test_simultaneous(self, ctx):
        got = sc.substitute(ctx.parse("u/v"), {
            "u": ctx.parse("v"), "v": ctx.parse("u"),
        })
        assert got.equals(ctx.parse("v/u"))


class TestProbes:
    def setup_method(self):
        sc.reset_probe_state()

    def teardown_method(self):
        sc.reset_probe_state()

    def test_hundred_point_agreement(self, ctx):
        sc.set_probe_points(100)
        zeros = [
            "(u+v)^2 - u^2 - 2*u*v - v^2",
            "sqrt(u*v)*sqrt(u*v) - u*v",
            "(u^3 - v^3)/(u - v) - u^2 - u*v - v^2",
            "ln(u)*(alpha - beta) - alpha*ln(u) + beta*ln(u)",
        ]
        nonzeros = [
            "u - v",
            "alpha*u^2 - alpha*u^2 + 1/7",
            "sqrt(u*v) - u",
            "(alpha - beta^2)*u",
        ]
        for text in zeros:
            assert sc.is_zero(ctx.parse(text))
        for text in nonzeros:
            assert not sc.is_zero(ctx.parse(text))
        checked, disagreements = sc.probe_report()
        assert checked == len(zeros) + len(nonzeros)
        assert disagreements == []

    def test_environment_variable_enables_probing(self, ctx, monkeypatch):
        monkeypatch.setenv("PENCIL_FORGE_PROBES", "7")
        sc.reset_probe_state()
        assert sc.is_zero(ctx.parse("(u - v)^2 - u^2 + 2*u*v - v^2"))
        checked, disagreements = sc.probe_report()
        assert checked == 1
        assert disagreements == []

    def test_repeated_zero_tests_all_count(self, ctx, monkeypatch):
        sc.set_probe_points(100)
        for _ in range(3):
            assert sc.is_zero(ctx.parse("(u+v)^2 - u^2 - 2*u*v - v^2"))
        assert sc.probe_report() == (3, [])
        # a normal form that wrongly claims zero meets the memoized verdict
        # on every zero test, and every one records the disagreement
        monkeypatch.setattr(sc, "_normalize", lambda raw: sc._NormalForm(None, ()))
        for _ in range(2):
            assert sc.is_zero(ctx.parse("u - v"))
        checked, disagreements = sc.probe_report()
        assert checked == 5
        assert len(disagreements) == 2

    def test_function_atom_points_repeat_after_reset(self, gctx, monkeypatch):
        seeds = []

        class Recorder(random.Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(sc, "random", types.SimpleNamespace(Random=Recorder))
        verdicts = []
        for _ in range(2):
            sc.reset_probe_state()
            raw = gctx.parse("gamma'(w)*v + gamma(w)").raw
            verdicts.append(sc._probe_expression(raw, (), 100))
        assert verdicts == [False, False]
        assert len(seeds) == 2 and seeds[0] == seeds[1]
        # without a reset the verdict comes from the memo, drawing no points
        assert sc._probe_expression(raw, (), 100) is False
        assert len(seeds) == 2

    def test_exact_rational_evaluation_matches(self, ctx):
        # direct Fraction evaluation as a second, probe-independent angle
        rng = random.Random(20250810)
        e = ctx.parse("(u^2 - v^2)/(u - v) - u - v")
        syms = {name: sp.Symbol(name) for name in ("u", "v", "w")}
        for _ in range(100):
            point = {
                s: sp.Rational(rng.randint(1, 40), rng.randint(1, 9))
                for s in syms.values()
            }
            if point[syms["u"]] == point[syms["v"]]:
                continue
            val = sp.cancel(e.raw.subs(point))
            assert val == 0

    def test_tiny_constant_is_not_zero(self, ctx):
        # exact residues: no tolerance calls u/10^30 zero
        sc.set_probe_points(100)
        assert not sc.is_zero(ctx.parse("u/10^30"))
        assert sc.probe_report() == (1, [])

    def test_roots_agree(self, ctx):
        sc.set_probe_points(100)
        texts = [
            "sqrt(4*u) - 2*sqrt(u)",
            "sqrt(u/v) - sqrt(u*v)/v",
            "1/(sqrt(u)+v) - (sqrt(u)-v)/(u-v^2)",
            "sqrt(-u)*sqrt(-u) + u",
        ]
        for text in texts:
            assert sc.is_zero(ctx.parse(text))
        assert sc.probe_report() == (len(texts), [])

    def test_root_branches(self):
        # sqrt(-u)*sqrt(-v) = -sqrt(u*v) on the principal branch
        u, v = sp.symbols("u v")
        root = lambda e: sp.Pow(e, sp.Rational(1, 2), evaluate=False)
        assert sc._probe_expression(root(-u) * root(-v) + root(u * v), (), 100) is True
        assert sc._probe_expression(root(-u) * root(-v) - root(u * v), (), 100) is False
        assert sc._probe_expression(root(4 * u) - 2 * root(u), (), 100) is True

    @pytest.mark.parametrize("text, zero", [
        ("ln(u^2) - 2*ln(u)", True),
        ("ln(u*v) - ln(u) - ln(v)", True),
        ("ln(6) - ln(2) - ln(3)", True),
        ("ln(u) - ln(v)", False),
    ])
    def test_log_identities(self, ctx, text, zero):
        # the oracle keeps flagging what the kernel's log atoms miss
        assert sc._probe_expression(ctx.parse(text).raw, (), 100) is zero

    def test_unknown_node_gives_none(self):
        u = sp.Symbol("u")
        for raw in (sp.exp(u) - 1, u ** sp.Rational(1, 3), sp.log(sp.sqrt(u)),
                    sp.Float("0.5") * u, sp.pi * u):
            assert sc._probe_expression(raw, (), 100) is None
