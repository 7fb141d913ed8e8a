"""Operator validity, Liouville potentials and H-potential identities."""

import pytest

from pencil_forge import diffgeo as dg
from pencil_forge import operators as ops
from pencil_forge import symcore as sc


@pytest.fixture
def actx():
    return sc.Context(fields=("u", "v"), parameters=("alpha", "beta", "epsilon"),
                      assume_nonzero=("alpha - beta^2",))


@pytest.fixture
def wctx():
    return sc.Context(fields=("u", "v", "w"))


def astig_metric(actx, alpha="alpha", beta="beta"):
    P = actx.parse
    return dg.Metric(actx, [[P("u"), P(beta)], [P(beta), P(f"{alpha}/u")]])


def wdvv_metric(wctx):
    P = wctx.parse
    return dg.Metric(wctx, [
        [P("v^3/w^2"), P("-3*v^2/(2*w)"), P("-v+1")],
        [P("-3*v^2/(2*w)"), P("2*v+1"), P("w")],
        [P("-v+1"), P("w"), P("0")],
    ])


def wdvv_operator(wctx):
    P = wctx.parse
    return ops.NonlocalIsometryOp.from_metric(
        wdvv_metric(wctx),
        dg.VectorField((P("1"), P("0"), P("0"))),
        epsilon=wctx.number(1),
    )


class TestValidateLocal:
    def test_astigmatism_local_part(self):
        ctx = sc.Context(fields=("u", "v"))
        P = ctx.parse
        g = dg.Metric(ctx, [[P("u"), P("0")], [P("0"), P("1/u")]])
        op = ops.LocalFirstOrderOp.from_metric(g)
        assert ops.validate_local(op).passed

    def test_constant_operator(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("0"), P("1")], [P("1"), P("0")]])
        op = ops.LocalFirstOrderOp.from_metric(g)
        assert ops.validate_local(op).passed

    def test_zero_symbols_invalid(self):
        ctx = sc.Context(fields=("u", "v"))
        P = ctx.parse
        g = dg.Metric(ctx, [[P("u"), P("0")], [P("0"), P("1")]])
        zero = ctx.number(0)
        gamma = tuple(
            tuple(tuple(zero for _ in range(2)) for _ in range(2))
            for _ in range(2)
        )
        report = ops.validate_local(ops.LocalFirstOrderOp(g, gamma))
        assert not report.passed
        assert not report["levi_civita_symbols"].passed
        assert report["metric_symmetric"].passed

    def test_degenerate_raises(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("u"), P("u")], [P("u"), P("u")]])
        with pytest.raises(dg.DegenerateMetricError):
            ops.validate_local(ops.LocalFirstOrderOp(g, ()))


class TestValidateNonlocal:
    def test_astigmatism(self, actx):
        P = actx.parse
        op = ops.NonlocalIsometryOp.from_metric(
            astig_metric(actx), dg.VectorField((P("0"), P("1"))),
            epsilon=P("epsilon"),
        )
        report = ops.validate_nonlocal(op)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "metric_symmetric", "connection_symmetric", "metric_compatible",
            "curvature_constant", "killing", "cyclic", "local_part_valid",
        ]

    def test_wdvv(self, wctx):
        assert ops.validate_nonlocal(wdvv_operator(wctx)).passed

    def test_bad_isometry_fails_killing(self, actx):
        P = actx.parse
        op = ops.NonlocalIsometryOp.from_metric(
            astig_metric(actx), dg.VectorField((P("1"), P("1"))),
            epsilon=P("epsilon"),
        )
        report = ops.validate_nonlocal(op)
        assert not report.passed
        assert not report["killing"].passed
        assert report["metric_compatible"].passed

    def test_epsilon_zero_still_valid(self, actx):
        P = actx.parse
        op = ops.NonlocalIsometryOp.from_metric(
            astig_metric(actx), dg.VectorField((P("0"), P("1"))),
            epsilon=actx.number(0),
        )
        assert ops.validate_nonlocal(op).passed

    def test_field_dependent_epsilon_rejected(self, actx):
        P = actx.parse
        with pytest.raises(ValueError):
            ops.NonlocalIsometryOp.from_metric(
                astig_metric(actx), dg.VectorField((P("0"), P("1"))),
                epsilon=P("u"),
            )


class TestLiouville:
    def test_wdvv_printed_table(self, wctx):
        P = wctx.parse
        ref = [
            [P("v^3/(2*w^2)"), P("u"), P("1")],
            [P("-3*v^2/(2*w) - u"), P("(2*v+1)/2"), P("0")],
            [P("-v"), P("w"), P("0")],
        ]
        r = ops.liouville_potential(wdvv_operator(wctx), ref)
        for i in range(3):
            for j in range(3):
                assert r[i][j].equals(ref[i][j]), (i, j)

    def test_astigmatism_derived_table(self, actx):
        P = actx.parse
        op = ops.NonlocalIsometryOp.from_metric(
            astig_metric(actx), dg.VectorField((P("0"), P("1"))),
            epsilon=P("epsilon"),
        )
        ref = [
            [P("u/2"), P("-v/2 + beta")],
            [P("v/2"), P("alpha/(2*u)")],
        ]
        r = ops.liouville_potential(op, ref)
        for i in range(2):
            for j in range(2):
                assert r[i][j].equals(ref[i][j]), (i, j)
        # defining identities hold regardless of gauge
        g = op.metric
        for i in range(2):
            for j in range(2):
                assert sc.is_zero(r[i][j] + r[j][i] - g.entries[i][j])
                for k, name in enumerate(actx.fields):
                    assert sc.is_zero(sc.diff(r[i][j], name) - op.gamma[i][j][k])

    def test_constant_metric_half(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P("0"), P("1")], [P("1"), P("0")]])
        op = ops.NonlocalIsometryOp.from_metric(
            g, dg.VectorField((P("1"), P("0"))), epsilon=actx.number(1))
        r = ops.liouville_potential(op)
        for i in range(2):
            for j in range(2):
                assert r[i][j].equals(g.entries[i][j] / 2)

    def test_not_closed_raises(self):
        ctx = sc.Context(fields=("u", "v"))
        P = ctx.parse
        g = dg.Metric(ctx, [[P("0"), P("1")], [P("1"), P("0")]])
        zero = ctx.number(0)
        gamma = [[[zero, zero], [zero, zero]], [[zero, zero], [zero, zero]]]
        gamma[0][1][0] = P("v")  # d_v Gamma^{12}_u != d_u Gamma^{12}_v
        gamma = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
        op = ops.NonlocalIsometryOp(
            g, gamma, ctx.number(0), ctx.number(1),
            dg.VectorField((P("1"), P("0"))),
        )
        with pytest.raises(ops.NotLiouvilleError):
            ops.liouville_potential(op)


class TestHPotential:
    def test_wdvv_printed_potentials(self, wctx):
        P = wctx.parse
        op = wdvv_operator(wctx)
        eta = ops.ConstantOp.antidiagonal(wctx)
        H = [P("-u*v - v^3/(2*w)"), P("u*w + v^2/2 + v/2"), P("w")]
        assert ops.h_potential_check(op, eta, H)

    def test_scaled_component_fails(self, wctx):
        P = wctx.parse
        op = wdvv_operator(wctx)
        eta = ops.ConstantOp.antidiagonal(wctx)
        H = [P("-u*v - v^3/(2*w)"), P("u*w + v^2/2 + v/2"), P("2*w")]
        assert not ops.h_potential_check(op, eta, H)

    def test_eta_gauge_truth_values(self):
        # for eta itself the lowered gauge H^i = eta_{ij} u^j / 2 fails the
        # metric identity (it doubles the off-diagonal), while H^i = u^i / 2
        # satisfies both; frozen from the expansion oracle
        ctx = sc.Context(fields=("u", "v"))
        P = ctx.parse
        eta = ops.ConstantOp.antidiagonal(ctx)
        g = dg.Metric(ctx, [[P("0"), P("1")], [P("1"), P("0")]])
        op = ops.NonlocalIsometryOp.from_metric(
            g, dg.VectorField((P("1"), P("0"))), epsilon=ctx.number(0))
        lowered = [P("v/2"), P("u/2")]
        straight = [P("u/2"), P("v/2")]
        assert not ops.h_potential_check(op, eta, lowered)
        assert ops.h_potential_check(op, eta, straight)


class TestConstantOp:
    def test_antidiagonal(self, wctx):
        eta = ops.ConstantOp.antidiagonal(wctx)
        for i in range(3):
            for j in range(3):
                want = 1 if i + j == 2 else 0
                assert eta.entries[i][j].equals(wctx.number(want))

    def test_rejects_field_entries(self, actx):
        P = actx.parse
        with pytest.raises(ValueError):
            ops.ConstantOp(actx, [[P("u"), P("0")], [P("0"), P("1")]])

    def test_rejects_degenerate(self, actx):
        P = actx.parse
        with pytest.raises(dg.DegenerateMetricError):
            ops.ConstantOp(actx, [[P("1"), P("1")], [P("1"), P("1")]])
