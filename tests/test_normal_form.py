"""Normal-form conventions and the error contract of the field-based
normalization: components must come out exactly as sympy.cancel writes
them, and inputs outside the supported class must be rejected."""

import pytest
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import CoercionFailed
from sympy.polys.rings import PolyElement

from pencil_forge import catalog as cat
from pencil_forge import symcore as sc


@pytest.fixture
def ctx():
    return sc.Context(
        fields=("u", "v", "w"),
        parameters=("alpha", "beta"),
        functions=(("g12", "v"), ("f", "-u+v")),
    )


class TestCancelConvention:
    # numerator and denominator of every component are the expanded parts
    # of sympy.fraction(sympy.cancel(...)): sign, content and the
    # distribution of a constant denominator all follow sympy
    @pytest.mark.parametrize("text", [
        "3/4",
        "(u + v)/2",
        "3*u/2",
        "-u/(2*v)",
        "(u - v)/(v - u + 2*u*v)",
        "(2*u + 4*v)/(6*w - 3*u)",
        "(alpha*u^2 - beta)/(beta - alpha*w) + 1/3",
        "g12(v)/(1 - u*g12'(v)) - f(-u+v)/2",
        "(u^2 - v^2)/(v - u)",
    ])
    def test_rational_parts_match_sympy_cancel(self, ctx, text):
        e = ctx.parse(text)
        num, den = sp.fraction(sp.cancel(e.raw))
        assert e.normal_form().parts == (
            ((None, False), (sp.expand(num), sp.expand(den))),
        )

    def test_radical_components_match_sympy_cancel(self, ctx):
        e = ctx.parse("(u + sqrt(v))/(u - sqrt(v))")
        s = sp.Symbol("v")
        u = sp.Symbol("u")
        d = u**2 - s
        want = []
        for has_rad, comp in ((False, (u**2 + s) / d), (True, 2 * u / d)):
            num, den = sp.fraction(sp.cancel(comp))
            want.append(((None, has_rad), (sp.expand(num), sp.expand(den))))
        nf = e.normal_form()
        assert nf.radicand == s
        assert nf.parts == tuple(want)


u, v, w = sp.symbols("u v w")
# a function atom as _normalize masks it: a plain generator named like it
G12 = sp.Symbol("g12(v)")
FIELD = FracField((u, v, w, G12), QQ, lex)


class TestFieldValue:
    # sympy's from_expr is the reference here only; the kernel never calls it
    @pytest.mark.parametrize("e", [
        1 / (u + 1 / (v + 1 / u)),                       # nested quotients
        (u - v) ** -3,                                   # negative power of a sum
        (1 - u) ** -2 * (v - 2 * w) ** -1,
        (u + v) * (u - v) - u**2 + v**2,                 # coefficients cancel to 0
        (u + v) * (u - v) - u**2 + v**2 + 1 / w,
        ((u + 1) / (v - 2)) ** 3,                        # powers of a fraction
        ((u + 1) / (2 - v)) ** -2,
        G12 / (1 - u * G12) - G12**2 / 2,                # masked function atoms
        (u + v) / 3,                                     # rational constant denominator
        sp.Rational(3, 4) * u**2 / (sp.Rational(2, 5) * v - 6 * w),
        sp.Rational(-7, 2),
        u,
        sp.Integer(0),
    ])
    def test_matches_from_expr(self, e):
        assert sc._field_value(FIELD, e) == FIELD.from_expr(e)

    def test_polynomial_sum_stays_in_ring(self):
        value = sc._field_value(FIELD, sp.expand((u + v + w + 1) ** 6) / 6)
        assert value.denom == FIELD.ring(6)
        assert value.numer == FIELD.ring.from_expr(sp.expand((u + v + w + 1) ** 6))

    @pytest.mark.parametrize("e", [
        sp.expand((u + v + w + 1) ** 4) / 6 - sp.Rational(2, 9) * u * G12,
        sp.Rational(3, 4) * u - v / 10,
        -6 * u**2 * v - 4 * w,                 # integer content is kept
        -u,
        sp.Rational(-7, 2),
        u**2 * (v - w) * (u + G12),           # factored, no denominator
        (u**2 - v**2) / (u - v),              # the base divides out exactly
    ])
    def test_polynomial_value_needs_no_cancel(self, e, monkeypatch):
        calls = []
        cancel = PolyElement.cancel

        def counted(self, g):
            calls.append(g)
            return cancel(self, g)

        monkeypatch.setattr(PolyElement, "cancel", counted)
        value = sc._field_value(FIELD, e)
        assert calls == []
        ref = FIELD.from_expr(e)
        assert (value.numer, value.denom) == cancel(ref.numer, ref.denom)

    def test_zero_base_raises_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            sc._field_value(FIELD, 1 / ((u + 1) ** 2 - u**2 - 2 * u - 1))

    def test_non_rational_node_fails_coercion(self):
        with pytest.raises(CoercionFailed):
            sc._field_value(FIELD, u ** sp.Rational(1, 4) + 1)

    # bases are kept factored and divided out exactly before one cancel;
    # these trees exercise what that final step has to get right
    @pytest.mark.parametrize("e", [
        # two denominator bases sharing the factor u + v, as in g9
        u / sp.expand((u + v) * (u - w)) + v / sp.expand((u + v) ** 2 * (v - w)),
        sp.expand((u + v) * w) / sp.expand((u + v) ** 2 * (v - w))
        - 1 / sp.expand((u + v) * (u - w)),
        # a numerator divisible by only part of a base
        sp.expand((u + v) * w) / sp.expand((u + v) * (u - w)),
        # bases equal up to a constant factor
        1 / (u - v) + 1 / (2 * v - 2 * u),
        (u + w) / (u - v) ** 2 - 3 / (2 * v - 2 * u),
        # a common numerator factor in every term of a sum
        u / (v + 1 / (u + w)) + w / (v + 1 / (u + w)),
        u**2 * v / (w - 1) + u * v**3,
        # a squared numerator base that a squared denominator base divides
        1 / ((u + v) ** 2 * (w + 1 / sp.expand((u + v) * (u - w))) ** 2),
        # a negative power of a sum that holds quotients
        (u + 1 / v + w / (u - v)) ** -2,
        (G12 / (1 - u * G12) + 1 / (u + v)) ** -1,
    ])
    def test_shared_factors_match_from_expr(self, e):
        # from_expr inverts without cancelling, so its denominator may lead
        # with a negative coefficient; compare with its canonical form
        ref = FIELD.from_expr(e)
        value = sc._field_value(FIELD, e)
        assert (value.numer, value.denom) == ref.numer.cancel(ref.denom)

    def test_zero_sum_inside_inverted_node_raises_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            sc._field_value(FIELD, 1 / (u / (u + v) + v / (u + v) - 1))

    def test_exact_quotient_matches_divmod(self):
        x, y, z, g = FIELD.ring.gens
        b = x * y**2 + z**5 - 3 * g
        cases = [
            ((x**3 * y - 2 * z + 1) * b, b),                     # exact
            ((x / 2 + QQ(3, 5) * y * g) * (x - y), x - y),       # exact, over QQ
            (x**5 + y, x + y),                                   # first term left over
            # the remainder term y^5 shows only after the quotient terms
            # x^3, x^2*y, ... have been taken
            ((x + y) * (x**3 + x**2 * y + z * g + 1) + y**5, x + y),
            (b * b + z, b),
            ((x + y + z + 1) ** 4, x + y + z + 1),   # many equal products
            ((x + y + 1) ** 3 + y, x + y + 1),
            (FIELD.ring.zero, b),
        ]
        for n, d in cases:
            q, r = divmod(n, d)
            assert sc._exact_quotient(n, d) == (None if r else q)

    def test_normalize_does_not_call_together(self, ctx, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sympy.together called")

        raw = ctx.parse(
            "(u + sqrt(v))/(u - sqrt(v)) + ln(u/w)/(u - w) + g12(v)/(1 - u*g12'(v))"
        ).raw
        monkeypatch.setattr(sp, "together", refuse)
        nf = sc._normalize.__wrapped__(raw)
        assert nf.radicand == v
        assert len(nf.parts) == 3

    def test_normalize_does_not_call_from_expr(self, ctx, monkeypatch):
        def refuse(self, expr):
            raise AssertionError("FracField.from_expr called")

        monkeypatch.setattr(FracField, "from_expr", refuse)
        raw = ctx.parse("(u + sqrt(v))/(u - sqrt(v)) + 1/(u - w)").raw
        nf = sc._normalize.__wrapped__(raw)
        assert nf.radicand == v
        assert len(nf.parts) == 2


class TestRadicalConjugation:
    # shaped like the perturbed g9 Levi-Civita entry: a monomial times a
    # 4-term and a squared 8-term factor, all free of the root, times
    # c + sqrt(s) with norm c^2 - s = 4*alpha*u^2*v^2
    MONOMIAL = "u^2*v"
    A = "(u + v + alpha + 1)"
    B = "(u^2 + v^2 + u*v + 2*u - v + alpha*u + alpha*v + 3)"
    C = "(eps2 + gamma*u*v)"

    def test_t_free_factor_is_not_squared(self, monkeypatch):
        ctx = sc.Context(fields=("u", "v"), parameters=("alpha", "eps2", "gamma"))
        s = sp.expand(ctx.parse(self.C).raw ** 2 - 4 * ctx.parse("alpha*u^2*v^2").raw)
        radicand = sc._render_sym(s, ctx)
        free = f"{self.MONOMIAL}*{self.A}*{self.B}^2"
        e = ctx.parse(f"1/({free}*({self.C} + sqrt({radicand})))")
        degrees = []
        cancel = PolyElement.cancel

        def recorded(self, g):
            degrees.append(max(sum(m) for m in g.itermonoms()))
            return cancel(self, g)

        monkeypatch.setattr(PolyElement, "cancel", recorded)
        nf = sc._normalize.__wrapped__(e.raw)
        monkeypatch.undo()

        # (c - t)/(P*(c^2 - s)): only c + t is conjugated
        P = ctx.parse(free).raw
        norm = ctx.parse("4*alpha*u^2*v^2").raw
        want = []
        for has_rad, comp in ((False, ctx.parse(self.C).raw), (True, -1)):
            num, den = sp.fraction(sp.cancel(comp / (P * norm)))
            want.append(((None, has_rad), (sp.expand(num), sp.expand(den))))
        assert nf.radicand == s
        assert nf.parts == tuple(want)
        # deg P = 8 and deg(c^2 - s) = 5; conjugating all of P*(c + t)
        # would hand a denominator of degree 2*8 + 5 to the cancel
        assert max(degrees) == 8 + 5

    def test_denominator_all_root(self, ctx):
        # a + b*t with a = 0: the gcd is b itself
        e = ctx.parse("(u + 1)/((u - w)*sqrt(v))")
        assert e.normal_form().parts == (((None, True), (u + 1, u * v - v * w)),)


class TestRejection:
    @pytest.mark.parametrize("text, message", [
        ("1/((u+1)^2 - u^2 - 2*u - 1)", "denominator vanishes identically"),
        ("u/sqrt((u+1)^2 - u^2 - 2*u - 1) + 1", "denominator vanishes identically"),
        ("sqrt(sqrt(u))", "not a rational function"),
    ])
    def test_rejection_message(self, ctx, text, message):
        with pytest.raises(sc.NormalizationError, match=message):
            sc.is_zero(ctx.parse(text))

    @pytest.mark.parametrize("text", [
        "sqrt(sqrt(u))",      # u^(1/4): nested radical
        "ln(sqrt(5*u+10))",   # radical inside a logarithm
        "ln(-1)",             # I*pi
        "sqrt(-4) + u",       # 2*I + u
    ])
    def test_non_rational_input_rejected(self, ctx, text):
        with pytest.raises(sc.NormalizationError):
            sc.is_zero(ctx.parse(text))

    def test_denominator_vanishing_modulo_radical_rejected(self, ctx):
        with pytest.raises(sc.NormalizationError):
            sc.is_zero(ctx.parse("1/((sqrt(u) + 1)*(sqrt(u) - 1) - u + 1)"))

    def test_mixed_log_powers_rejected(self, ctx):
        with pytest.raises(sc.NonlinearLogarithmError):
            sc.is_zero(ctx.parse("ln(u)*ln(v) + ln(u)"))

    @pytest.mark.parametrize("text, op", [
        ("sqrt(ln(u))", None),
        ("ln(ln(u))", None),
        ("u*sqrt(1+ln(u))", None),
        ("sqrt(1+sqrt(u))", None),
        ("ln(ln(u))", "diff"),
        ("sqrt(ln(v))", "antiderivative"),
    ])
    def test_log_or_root_inside_log_or_radicand_rejected(self, ctx, text, op):
        # a log node or root inside a log argument or a radicand has no
        # normal form; nothing is rendered, so no internal generator leaks
        e = ctx.parse(text)
        with pytest.raises(sc.NormalizationError):
            sc.render(getattr(sc, op)(e, "u") if op else e)

    @pytest.mark.parametrize("value", ["ln(u)", "sqrt(u)"])
    def test_log_or_root_inside_atom_argument_rejected(self, ctx, value):
        # atoms are declared with rational arguments; a substitution can
        # still put a log or a root there
        with pytest.raises(sc.NormalizationError, match="inside function atom argument"):
            sc.substitute(ctx.parse("u*g12(v)"), {"v": ctx.parse(value)})

    def test_no_internal_generator_in_output(self, ctx):
        e = ctx.parse("u*ln(u+v)*sqrt(1+u) + ln(v)/(1 - sqrt(1+u)) + g12(v)*ln(u)")
        for value in (e, sc.diff(e, "u"), sc.diff(e, "v"), sc.antiderivative(e, "w")):
            assert "#" not in sc.render(value)

    def test_undefined_constant_precedes_nesting(self):
        raw = sp.sqrt(u * sp.log(u + sp.zoo, evaluate=False))
        with pytest.raises(sc.NormalizationError,
                           match="division by zero or undefined constant"):
            sc._normalize.__wrapped__(raw)


class TestRadicandContent:
    # a square root keeps its radicand whole: sympy.together, which
    # normalization no longer calls, turned sqrt(5*u + 10) into
    # sqrt(5)*sqrt(u + 2); these guard the converter that replaced it
    def test_root_with_content_is_nonzero(self, ctx):
        assert not sc.is_zero(ctx.parse("sqrt(5*u+10)"))

    def test_square_of_root_with_content_cancels(self, ctx):
        assert sc.is_zero(ctx.parse("sqrt(5*u+10)^2 - 5*u - 10"))

    def test_root_with_content_in_a_quotient(self, ctx):
        assert sc.is_zero(ctx.parse("1/sqrt(5*u+10) - sqrt(5*u+10)/(5*u+10)"))

    def test_specialized_g9_passes(self):
        case = cat.builtin_case("g9").specialize(
            {"alpha": "-2/3", "beta": "-8/7", "gamma": "1", "eps2": "2"}
        )
        report = cat.verify_case(case)
        assert report.passed, report.to_dict()


class TestSingleWalk:
    # _normalize reads the tree in one walk; these pin what the separate
    # has/atoms/free_symbols walks decided before it
    @pytest.fixture
    def nested(self):
        return sc.Context(fields=("u", "v"), functions=(("g", "u"), ("f", "g(u) + v")))

    def test_zoo_inside_log_argument(self):
        raw = u * sp.log(u + sp.zoo, evaluate=False)
        with pytest.raises(sc.NormalizationError,
                           match="division by zero or undefined constant"):
            sc._normalize.__wrapped__(raw)

    def test_negative_infinity_is_not_rational(self):
        # has(zoo, oo, nan) does not match -oo; the ring reader rejects it
        with pytest.raises(sc.NormalizationError, match="not a rational function"):
            sc._normalize.__wrapped__(u - sp.oo)

    def test_symbol_inside_atom_argument_is_no_generator(self, ctx, monkeypatch):
        made = []

        def recorded(symbols, *args):
            made.append(symbols)
            return FracField(symbols, *args)

        monkeypatch.setattr(sc, "FracField", recorded)
        nf = sc._normalize.__wrapped__(ctx.parse("u*g12(v) + 1").raw)
        assert made == [(u, ctx.parse("g12(v)").raw)]
        assert nf.parts == (((None, False), (u * ctx.parse("g12(v)").raw + 1, 1)),)

    def test_nested_atoms(self, nested):
        g = nested.parse("g(u)").raw
        f, df = (nested.parse(f"{name}(g(u) + v)").raw for name in ("f", "f'"))
        nf = nested.parse("f(g(u)+v)/(u - g(u)) + f'(g(u)+v)").normal_form()
        assert nf.parts == (((None, False), (u * df + f - df * g, u - g)),)

    def test_root_and_log(self, ctx):
        nf = ctx.parse("sqrt(u+v)/(u - sqrt(u+v)) + ln(u/v)*(1 + sqrt(u+v))").normal_form()
        den = u**2 - u - v
        assert nf.radicand == u + v
        assert nf.parts == (
            ((None, False), (u + v, den)),
            ((None, True), (u, den)),
            ((u / v, False), (1, 1)),
            ((u / v, True), (1, 1)),
        )

    def test_atom_only_in_radicand(self, ctx):
        # the radicand's atoms are generators too; the separate walks took
        # them from the rest of the tree only, and from_expr raised
        # ValueError when the atom occurred nowhere else
        nf = ctx.parse("u*sqrt(g12(v))").normal_form()
        assert nf.radicand == ctx.parse("g12(v)").raw
        assert nf.parts == (((None, True), (u, 1)),)

    def test_plain_tree_is_walked_once(self, ctx, monkeypatch):
        # no atoms/has/free_symbols walk and no rewrite of the input or the
        # output, with or without function atoms
        rules = []

        def refuse(name):
            def method(self, *args, **kwargs):
                raise AssertionError(f"Basic.{name} called on {self}")
            return method

        def xreplace(self, rule):
            rules.append(rule)
            return xreplace_(self, rule)

        xreplace_ = sp.Basic.xreplace
        monkeypatch.setattr(sp.Basic, "atoms", refuse("atoms"))
        monkeypatch.setattr(sp.Basic, "has", refuse("has"))
        monkeypatch.setattr(sp.Basic, "free_symbols", property(refuse("free_symbols")))
        monkeypatch.setattr(sp.Basic, "xreplace", xreplace)
        plain = (u - v) / (v - u + 2 * u * v * w) + (u + w) ** 2 / (3 * w)
        assert len(sc._normalize.__wrapped__(plain).parts) == 1
        assert rules == []
        g12, f = sp.Function("g12")(v), sp.Function("f")(v - u)
        sc._normalize.__wrapped__(plain + g12 * f / (1 - u * g12))
        assert rules == []


class TestSharedLogArgument:
    # two log nodes whose arguments cancel to one canonical argument share
    # its generator, and their terms are summed, not one of them dropped
    @pytest.mark.parametrize("text, rendered", [
        ("ln((u^2-1)/(u-1)) + ln(u+1)", "2*ln(1 + u)"),
        ("ln((u^2-1)/(u-1)) - ln(u+1)", "0"),
        ("u*ln((u^2-1)/(u-1)) - u*ln(u+1)", "0"),
        ("(ln((u^2-1)/(u-1)) - ln(u+1))^2", "0"),
    ])
    def test_terms_are_summed(self, ctx, text, rendered):
        e = ctx.parse(text)
        assert sc.render(e) == rendered
        assert sc.is_zero(e) == (rendered == "0")
