"""Pencil compatibility and the bi-Hamiltonian pair criterion."""

import pytest

from pencil_forge import catalog as cat
from pencil_forge import diffgeo as dg
from pencil_forge import operators as ops
from pencil_forge import pencil as pc
from pencil_forge import symcore as sc


@pytest.fixture
def actx():
    return sc.Context(fields=("u", "v"), parameters=("alpha", "beta", "gamma"),
                      assume_nonzero=("alpha - beta^2",))


def eta_metric(ctx):
    return ops.ConstantOp.antidiagonal(ctx).metric


class TestAlmostCompatible:
    def test_constant_pair(self, actx):
        P = actx.parse
        g6 = dg.Metric(actx, [[P("alpha"), P("beta")], [P("beta"), P("gamma")]])
        assert pc.almost_compatible(eta_metric(actx), g6)

    def test_g1(self, actx):
        P = actx.parse
        g1 = dg.Metric(actx, [[P("alpha/v"), P("beta")], [P("beta"), P("v")]])
        assert pc.almost_compatible(eta_metric(actx), g1)

    def test_non_affine_fails(self, actx):
        P = actx.parse
        bad = dg.Metric(actx, [[P("u"), P("0")], [P("0"), P("1")]])
        assert not pc.almost_compatible(eta_metric(actx), bad)

    def test_degenerate_pencil_raises(self, actx):
        # det(g + lam*gt) is identically zero only when the shared kernel
        # persists along the whole pencil
        P = actx.parse
        g = dg.Metric(actx, [[P("u"), P("0")], [P("0"), P("0")]])
        gt = dg.Metric(actx, [[P("1"), P("0")], [P("0"), P("0")]])
        with pytest.raises(pc.DegeneratePencilError):
            pc.almost_compatible(g, gt)


def _almost_by_pencil_connection(g, gt):
    """The definition: the symbols of g + lam*gt equal Gamma + lam*Gammat."""
    pencil = pc.Pencil(g, gt)
    n = pencil.n
    conn_l = dg.levi_civita(pencil.combined).raised
    conn_g = dg.levi_civita(g).raised
    conn_t = dg.levi_civita(gt).raised
    return all(
        sc.is_zero(conn_l[i][j][k] - conn_g[i][j][k] - pencil.lam * conn_t[i][j][k])
        for i in range(n) for j in range(n) for k in range(n)
    )


G1 = [["alpha/v", "beta"], ["beta", "v"]]


class TestAlmostCompatibleIdentity:
    # neither member is constant, so no term of the identity drops out
    @pytest.mark.parametrize("rows, rows_t, expected", [
        ([["u", "0"], ["0", "1"]], [["1", "0"], ["0", "v"]], True),
        ([["u", "0"], ["0", "1"]], [["v", "0"], ["0", "1"]], False),
        (G1, [["2*alpha/v", "2*beta"], ["2*beta", "2*v"]], True),
        (G1, [["u", "0"], ["0", "u"]], False),
        ([["u^2", "0"], ["0", "v^2"]], [["u", "0"], ["0", "v"]], True),
        ([["u*v", "1"], ["1", "u"]], [["v", "u"], ["u", "1"]], False),
        ([["0", "u"], ["u", "v"]], [["0", "1"], ["1", "0"]], True),
        # the identity holds at k = 1 and fails only at k = 2
        ([["1", "0"], ["0", "u"]], [["1", "0"], ["0", "v"]], False),
    ])
    def test_agrees_with_pencil_connection(self, actx, rows, rows_t, expected):
        def metric(entries):
            return dg.Metric(actx, [[actx.parse(e) for e in row] for row in entries])

        assert pc.almost_compatible(metric(rows), metric(rows_t)) is expected
        assert _almost_by_pencil_connection(metric(rows), metric(rows_t)) is expected

    def test_pencil_connection_not_computed(self, actx):
        P = actx.parse
        g = dg.Metric(actx, [[P(e) for e in row] for row in G1])
        pencil = pc.Pencil(eta_metric(actx), g)
        assert pc._almost(pencil)
        assert pencil.combined._connection is None
        assert g._connection is not None


class TestCompatible:
    def test_eta_with_itself(self, actx):
        assert pc.compatible(eta_metric(actx), eta_metric(actx))

    def test_eta_with_classified_metrics(self, actx):
        P = actx.parse
        for rows in (
            [[P("alpha/v"), P("beta")], [P("beta"), P("v")]],
            [[P("0"), P("beta")], [P("beta"), P("v")]],
            [[P("alpha"), P("beta")], [P("beta"), P("gamma")]],
        ):
            gt = dg.Metric(actx, rows)
            assert pc.compatible(eta_metric(actx), gt)

    def test_constant_curvature_metric_fails(self):
        ctx = sc.Context(fields=("u", "v"), parameters=("c",))
        P = ctx.parse
        conf = P("(1 + c/4*(u^2 + v^2))^2")
        gcc = dg.Metric(ctx, [[conf, P("0")], [P("0"), conf]])
        assert not pc.compatible(eta_metric(ctx), gcc)

    def test_symmetric_for_flat_pairs(self, actx):
        P = actx.parse
        g1 = dg.Metric(actx, [[P("alpha/v"), P("beta")], [P("beta"), P("v")]])
        eta = eta_metric(actx)
        assert pc.compatible(eta, g1) == pc.compatible(g1, eta)

    def test_both_sides_nonconstant(self, actx):
        # g + lam*g scales the connection affinely and stays flat, which
        # exercises the general splitting branch (no constant member)
        P = actx.parse
        g1 = dg.Metric(actx, [[P("alpha/v"), P("beta")], [P("beta"), P("v")]])
        g1b = dg.Metric(actx, [[P("alpha/v"), P("beta")], [P("beta"), P("v")]])
        assert pc.compatible(g1, g1b)


class TestPairCheck:
    def test_astigmatism(self):
        case = cat.builtin_case("astigmatism")
        report = pc.pair_check(case.eta(), case.operator())
        assert report.passed

    def test_wdvv(self):
        case = cat.builtin_case("wdvv3")
        report = pc.pair_check(case.eta(), case.operator())
        assert report.passed

    def test_wrong_isometry_fails_metric_killing(self):
        case = cat.builtin_case("astigmatism")
        ctx = case.context()
        P = ctx.parse
        op = ops.NonlocalIsometryOp.from_metric(
            case.metric(), dg.VectorField((P("1"), P("0"))), epsilon=P("epsilon"))
        report = pc.pair_check(case.eta(), op)
        assert not report.passed
        assert not report["metric_killing"].passed
        assert report["eta_killing"].passed

    def test_incompatible_metric_fails(self):
        ctx = sc.Context(fields=("u", "v"))
        P = ctx.parse
        g = dg.Metric(ctx, [[P("u"), P("0")], [P("0"), P("1")]])
        op = ops.NonlocalIsometryOp.from_metric(
            g, dg.VectorField((P("0"), P("1"))), epsilon=ctx.number(1))
        report = pc.pair_check(ops.ConstantOp.antidiagonal(ctx), op)
        assert not report.passed
        assert not report["pencil_compatible"].passed

    def test_requires_zero_curvature_tail(self):
        case = cat.builtin_case("astigmatism")
        ctx = case.context()
        op = case.operator()
        bumped = ops.NonlocalIsometryOp(
            op.metric, op.gamma, ctx.number(1), op.epsilon, op.isometry)
        with pytest.raises(ValueError):
            pc.pair_check(case.eta(), bumped)


class TestPencilProperties:
    @pytest.mark.parametrize("name", ["g1", "g6", "wdvv3"])
    def test_lambda_combination_validates(self, name):
        # when the pair criterion holds, (lam*eta + g, Gamma, 0, eps, f)
        # passes the nonlocal validity conditions for symbolic lam
        case = cat.builtin_case(name)
        op = case.operator()
        assert pc.pair_check(case.eta(), op).passed
        ctx = case.context().extend(parameters=(pc.PENCIL_PARAMETER,))
        lam = ctx.var(pc.PENCIL_PARAMETER)
        eta = case.eta()
        n = case.n
        combined = dg.Metric(ctx, [
            [op.metric.entries[i][j] + lam * eta.entries[i][j] for j in range(n)]
            for i in range(n)
        ])
        lifted = ops.NonlocalIsometryOp(
            combined, op.gamma, op.c, op.epsilon, op.isometry)
        assert ops.validate_nonlocal(lifted).passed

    def test_catalog_isometries_killing_for_both(self):
        for case in cat.builtin_cases():
            if case.n != 2:
                continue
            g = case.metric()
            f = case.isometry()
            eta = dg.Metric(case.context(), case.eta().entries)
            assert dg.killing_check(eta, f), case.name
            assert dg.killing_check(g, f), case.name
