"""Geometry tests: connection tables, curvature, Killing and cyclic checks.

The curvature expectations are fixed by an independent oracle
(`oracle_curvature`) that starts from the covariant metric and uses plain
sympy only; it shares no code with the module under test.
"""

import random

import pytest
import sympy as sp

from pencil_forge import diffgeo as dg
from pencil_forge import symcore as sc


def oracle_curvature(cov_rows, coords):
    """Independent brute force: covariant metric in, mixed and raised
    curvature out, standard Levi-Civita formulas, pure sympy."""
    n = len(coords)
    g = sp.Matrix(cov_rows)
    ginv = g.inv()
    gamma = [[[
        sp.simplify(sum(
            ginv[i, s] * (sp.diff(g[s, k], coords[j])
                          + sp.diff(g[s, j], coords[k])
                          - sp.diff(g[j, k], coords[s]))
            for s in range(n)
        ) / 2)
        for k in range(n)] for j in range(n)] for i in range(n)]
    mixed = [[[[
        sp.simplify(
            sp.diff(gamma[i][l][j], coords[k])
            - sp.diff(gamma[i][k][j], coords[l])
            + sum(gamma[i][k][s] * gamma[s][l][j]
                  - gamma[i][l][s] * gamma[s][k][j] for s in range(n))
        )
        for l in range(n)] for k in range(n)] for j in range(n)] for i in range(n)]
    raised = [[[[
        sp.simplify(sum(ginv[i, s] * mixed[j][s][k][l] for s in range(n)))
        for l in range(n)] for k in range(n)] for j in range(n)] for i in range(n)]
    return mixed, raised


@pytest.fixture
def actx():
    return sc.Context(fields=("u", "v"), parameters=("alpha", "beta"),
                      assume_nonzero=("alpha - beta^2",))


@pytest.fixture
def cctx():
    return sc.Context(fields=("u", "v"), parameters=("c",))


def conformal_metric(cctx):
    conf = cctx.parse("(1 + c/4*(u^2 + v^2))^2")
    zero = cctx.parse("0")
    return dg.Metric(cctx, [[conf, zero], [zero, conf]])


class TestLeviCivita:
    def test_astigmatism_table(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("u"), P("beta")], [P("beta"), P("alpha/u")]])
        conn = dg.levi_civita(g)
        expected = {
            (0, 0, 0): "1/2",
            (1, 1, 0): "-alpha/(2*u^2)",
            (1, 0, 1): "1/2",
            (0, 1, 1): "-1/2",
        }
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    want = P(expected.get((i, j, k), "0"))
                    assert conn.raised[i][j][k].equals(want), (i, j, k)

    def test_constant_metric_vanishes(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("0"), P("1")], [P("1"), P("0")]])
        conn = dg.levi_civita(g)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert sc.is_zero(conn.raised[i][j][k])
                    assert sc.is_zero(conn.lower[i][j][k])

    def test_wdvv_coefficient_matrices(self):
        ctx = sc.Context(fields=("u", "v", "w"))
        P = ctx.parse
        g = dg.Metric(ctx, [
            [P("v^3/w^2"), P("-3*v^2/(2*w)"), P("-v+1")],
            [P("-3*v^2/(2*w)"), P("2*v+1"), P("w")],
            [P("-v+1"), P("w"), P("0")],
        ])
        conn = dg.levi_civita(g)
        tables = {
            0: [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
            1: [["3*v^2/(2*w^2)", "0", "0"], ["-3*v/w", "1", "0"], ["-1", "0", "0"]],
            2: [["-v^3/w^3", "0", "0"], ["3*v^2/(2*w^2)", "0", "0"], ["0", "1", "0"]],
        }
        for k, rows in tables.items():
            for i in range(3):
                for j in range(3):
                    assert conn.raised[i][j][k].equals(P(rows[i][j])), (i, j, k)

    def test_degenerate_metric_raises(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("u"), P("u")], [P("u"), P("u")]])
        with pytest.raises(dg.DegenerateMetricError):
            dg.levi_civita(g)

    def test_metricity(self, actx):
        P = actx.parse
        for rows in (
            [[P("u"), P("beta")], [P("beta"), P("alpha/u")]],
            [[P("alpha/v"), P("beta")], [P("beta"), P("v")]],
        ):
            g = dg.Metric(actx, rows)
            conn = dg.levi_civita(g)
            for k in range(2):
                for i in range(2):
                    for j in range(2):
                        total = sc.diff(g.entries[i][j], actx.fields[k])
                        for s in range(2):
                            total = total + conn.lower[i][k][s] * g.entries[s][j]
                            total = total + conn.lower[j][k][s] * g.entries[s][i]
                        assert sc.is_zero(total)


class TestRiemann:
    def test_flat_antidiagonal(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("0"), P("1")], [P("1"), P("0")]])
        assert dg.riemann(g).first_nonzero() is None
        assert dg.is_flat(g)

    def test_g1_flat(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("alpha/v"), P("beta")], [P("beta"), P("v")]])
        assert dg.is_flat(g)

    def test_conformal_matches_oracle(self, cctx):
        g = conformal_metric(cctx)
        assert not dg.is_flat(g)
        u, v, c = sp.symbols("u v c")
        conf = (1 + c / 4 * (u**2 + v**2)) ** 2
        cov = [[1 / conf, 0], [0, 1 / conf]]
        mixed, raised = oracle_curvature(cov, (u, v))
        curv = dg.riemann(g)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        want = sp.simplify(raised[i][j][k][l])
                        got = curv.raised[i][j][k][l]
                        assert sp.simplify(got.canonical - want) == 0, (i, j, k, l)

    def test_random_metric_matches_oracle(self):
        ctx = sc.Context(fields=("u", "v"))
        P = ctx.parse
        g = dg.Metric(ctx, [[P("1 + u^2"), P("u*v")], [P("u*v"), P("2 + v^2")]])
        u, v = sp.symbols("u v")
        cov = sp.Matrix([[1 + u**2, u * v], [u * v, 2 + v**2]]).inv()
        mixed, raised = oracle_curvature(cov.tolist(), (u, v))
        curv = dg.riemann(g)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        diff = sp.simplify(
                            curv.raised[i][j][k][l].canonical
                            - sp.simplify(raised[i][j][k][l])
                        )
                        assert diff == 0, (i, j, k, l)

    def test_first_bianchi_on_random_metrics(self):
        rng = random.Random(20250810)
        ctx = sc.Context(fields=("u", "v"))
        P = ctx.parse
        count = 0
        while count < 20:
            a = rng.randint(1, 4)
            b = rng.randint(0, 3)
            c = rng.randint(1, 4)
            d = rng.randint(0, 2)
            rows = [
                [P(f"{a} + {d}*u^2"), P(f"{b}*u*v")],
                [P(f"{b}*u*v"), P(f"{c} + v^2")],
            ]
            g = dg.Metric(ctx, rows)
            if g.is_degenerate():
                continue
            count += 1
            curv = dg.riemann(g)
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        for l in range(2):
                            total = (
                                curv.mixed[i][j][k][l]
                                + curv.mixed[i][k][l][j]
                                + curv.mixed[i][l][j][k]
                            )
                            assert sc.is_zero(total)


class TestConstantCurvature:
    def test_flat_gives_zero(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("0"), P("1")], [P("1"), P("0")]])
        assert dg.constant_curvature(g).equals(actx.number(0))

    def test_conformal_gives_c(self, cctx):
        g = conformal_metric(cctx)
        cc = dg.constant_curvature(g)
        assert cc is not None
        assert cc.equals(cctx.parse("c"))

    def test_g8_flat(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("u/v"), P("beta")], [P("beta"), P("alpha*v/u")]])
        assert dg.constant_curvature(g).equals(actx.number(0))

    def test_non_constant_returns_none(self):
        ctx = sc.Context(fields=("u", "v"))
        P = ctx.parse
        g = dg.Metric(ctx, [[P("(1 + u^4/4)^2"), P("0")], [P("0"), P("(1 + u^4/4)^2")]])
        assert dg.constant_curvature(g) is None


class TestKilling:
    def test_v_only_metric_translation(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("alpha/v"), P("beta")], [P("beta"), P("v")]])
        assert dg.killing_check(g, dg.VectorField((P("1"), P("0"))))

    def test_g8_scaling(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("u/v"), P("beta")], [P("beta"), P("alpha*v/u")]])
        assert dg.killing_check(g, dg.VectorField((P("u"), P("-v"))))

    def test_translation_fails_on_u_metric(self):
        ctx = sc.Context(fields=("u", "v"))
        P = ctx.parse
        g = dg.Metric(ctx, [[P("u"), P("0")], [P("0"), P("1")]])
        assert not dg.killing_check(g, dg.VectorField((P("1"), P("0"))))

    def test_scale_invariance(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("u"), P("beta")], [P("beta"), P("alpha/u")]])
        f1 = dg.VectorField((P("0"), P("1")))
        f7 = dg.VectorField((P("0"), P("7")))
        assert dg.killing_check(g, f1) == dg.killing_check(g, f7)


class TestCyclic:
    def test_two_dimensional_killing_cases(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("u"), P("beta")], [P("beta"), P("alpha/u")]])
        assert dg.cyclic_check(g, dg.VectorField((P("0"), P("1"))))

    def test_wdvv_translation(self):
        ctx = sc.Context(fields=("u", "v", "w"))
        P = ctx.parse
        g = dg.Metric(ctx, [
            [P("v^3/w^2"), P("-3*v^2/(2*w)"), P("-v+1")],
            [P("-3*v^2/(2*w)"), P("2*v+1"), P("w")],
            [P("-v+1"), P("w"), P("0")],
        ])
        assert dg.cyclic_check(g, dg.VectorField((P("1"), P("0"), P("0"))))

    def test_three_dimensional_oracle(self):
        # brute-force oracle with the identity metric: grad_s f^k = d_s f^k,
        # grad^i = d_i; the frozen verdict for f = (v, w, u) is False
        # (e.g. the (1,1,2) component equals v)
        u, v, w = sp.symbols("u v w")
        f = (v, w, u)
        coords = (u, v, w)
        nabla = [[sp.diff(f[k], coords[s]) for k in range(3)] for s in range(3)]
        verdict = True
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    total = sp.simplify(
                        f[j] * nabla[i][k] + f[k] * nabla[j][i] + f[i] * nabla[k][j]
                    )
                    if total != 0:
                        verdict = False
        assert verdict is False

        ctx = sc.Context(fields=("u", "v", "w"))
        P = ctx.parse
        g = dg.Metric(ctx, [
            [P("1"), P("0"), P("0")],
            [P("0"), P("1"), P("0")],
            [P("0"), P("0"), P("1")],
        ])
        got = dg.cyclic_check(g, dg.VectorField((P("v"), P("w"), P("u"))))
        assert got is verdict
