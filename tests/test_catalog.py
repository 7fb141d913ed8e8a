"""Catalog records, the verification runner and the functional identities."""

import json

import pytest

import functional_identities as fi
from pencil_forge import catalog as cat
from pencil_forge import cli
from pencil_forge import diffgeo as dg
from pencil_forge import hierarchy as hy
from pencil_forge import symcore as sc


class TestBuiltinCases:
    def test_names_and_count(self):
        names = [c.name for c in cat.builtin_cases()]
        assert names == [
            "astigmatism", "g1", "g2", "g3", "g4", "g5",
            "g6", "g7", "g8", "g9", "wdvv3",
        ]

    def test_g1_record(self):
        case = cat.builtin_case("g1")
        ctx = case.context()
        g = case.metric()
        assert g.entries[0][0].equals(ctx.parse("alpha/v"))
        assert g.entries[0][1].equals(ctx.parse("beta"))
        assert g.entries[1][1].equals(ctx.parse("v"))
        assert len(ctx.assumptions) == 1
        assert ctx.assumptions[0].equals(ctx.parse("alpha - beta^2"))

    def test_g7_record(self):
        case = cat.builtin_case("g7")
        ctx = case.context()
        g = case.metric()
        assert g.entries[0][0].equals(ctx.parse("(alpha*u*v + eps2)/v^2"))
        assert g.entries[1][1].equals(ctx.number(0))
        assert ctx.assumptions[0].equals(ctx.parse("beta"))

    def test_wdvv3_record(self):
        case = cat.builtin_case("wdvv3")
        ctx = case.context()
        g = case.metric()
        expected = [
            ["v^3/w^2", "-3*v^2/(2*w)", "-v+1"],
            ["-3*v^2/(2*w)", "2*v+1", "w"],
            ["-v+1", "w", "0"],
        ]
        for i in range(3):
            for j in range(3):
                assert g.entries[i][j].equals(ctx.parse(expected[i][j]))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            cat.builtin_case("g10")

    def test_fresh_records(self):
        assert cat.builtin_case("g1") is not cat.builtin_case("g1")
        assert cat.builtin_cases()[0] is not cat.builtin_cases()[0]


class TestSchema:
    def test_builtins_pass(self):
        data = cat._case_data()
        assert len(data) == 11
        for d in data:
            cat.validate_case_data(d)

    def test_non_square_metric_rejected(self):
        data = json.loads(json.dumps(cat.builtin_case("g1").data))
        data["metric"][1] = ["v"]
        with pytest.raises(cat.CaseFileError, match="2x2 matrix"):
            cat.CaseRecord(data)

    def test_missing_key_rejected(self):
        data = dict(cat.builtin_case("g1").data)
        del data["isometry"]
        with pytest.raises(cat.CaseFileError, match="missing key 'isometry'"):
            cat.CaseRecord(data)

    def test_cli_names_resolve(self):
        assert cli.validate_case_data is cat.validate_case_data
        assert cli.CaseFileError is cat.CaseFileError


class TestOneOperatorPerCase:
    def test_record_objects_are_shared(self):
        case = cat.builtin_case("g3")
        assert case.operator() is case.operator()
        assert case.operator().metric is case.metric()
        assert case.eta() is case.eta()
        assert cat._bind_operator(case, None) is case.operator()

    def test_g3_computes_two_connections(self, monkeypatch):
        computed = []
        levi_civita = dg.levi_civita

        def counting(g):
            if g._connection is None:
                computed.append(g)
            return levi_civita(g)

        monkeypatch.setattr(dg, "levi_civita", counting)
        case = cat.builtin_case("g3")
        assert cat.verify_case(case).passed
        # the case metric and eta; almost-compatibility needs no connection
        # of the pencil g + lambda*eta
        assert len(computed) == 2
        assert computed[0] is case.metric()


class TestVerifyCase:
    def test_astigmatism_all_pass(self):
        report = cat.verify_case(cat.builtin_case("astigmatism"))
        assert report.passed
        names = [c.name for c in report.checks]
        for expected in (
            "well_formed", "nondegenerate", "metric_symmetric", "killing",
            "cyclic", "pencil_compatible", "christoffel_reference",
            "liouville_reference", "casimir_flow_reference",
            "magri_reference", "recursion_reference",
            "degenerate_split_reference",
        ):
            assert expected in names

    def test_g2_opaque_functions_pass(self):
        report = cat.verify_case(cat.builtin_case("g2"))
        assert report.passed

    def test_constraint_violation_reports_error(self):
        bad = cat.builtin_case("g1").specialize({"alpha": "beta^2"})
        report = cat.verify_case(bad)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["nondegenerate"].status == "error"
        assert "DegenerateMetricError" in by_name["nondegenerate"].witness

    def test_corrupted_metric_names_witness(self):
        bad = cat.builtin_case("g3").perturb_metric_entry(1, 1)
        report = cat.verify_case(bad)
        assert not report.passed
        failing = [c for c in report.checks if c.status != "pass"]
        assert failing
        assert any(c.witness for c in failing)

    def test_empty_catalog(self):
        assert cat.verify_all([]) == []

    def test_verify_all_subset_order(self):
        cases = [cat.builtin_case("g3"), cat.builtin_case("g1")]
        reports = cat.verify_all(cases)
        assert [r.case for r in reports] == ["g1", "g3"]
        assert all(r.passed for r in reports)


class TestWdvvResidual:
    @pytest.fixture
    def gctx(self):
        return sc.Context(fields=("u", "v", "w"), functions=(("gamma", "w"),))

    def test_ansatz_factors_through_reduction(self, gctx):
        F = gctx.parse("u^2*w/2 + u*v^2/2 - v^4*gamma(w)/16")
        res = fi.wdvv_residual(F)
        chazy = fi.chazy_residual(gctx.parse("gamma(w)"))
        factor = gctx.parse("-v^4/16")
        assert sc.is_zero(res - factor * chazy)

    def test_pure_quadratic_part(self, gctx):
        assert sc.is_zero(fi.wdvv_residual(gctx.parse("u^2*w/2 + u*v^2/2")))

    def test_concrete_solution(self, gctx):
        F = sc.substitute(
            gctx.parse("u^2*w/2 + u*v^2/2 - v^4*gamma(w)/16"),
            {"gamma": gctx.parse("-2/w")},
        )
        assert sc.is_zero(fi.wdvv_residual(F))

    def test_shape_error(self, gctx):
        with pytest.raises(ValueError):
            fi.wdvv_residual(gctx.parse("u^3 + v^2"))


class TestChazyResidual:
    @pytest.fixture
    def ctx(self):
        return sc.Context(fields=("u", "v", "w"))

    def test_solution(self, ctx):
        assert sc.is_zero(fi.chazy_residual(ctx.parse("-2/w")))

    def test_zero(self, ctx):
        assert sc.is_zero(fi.chazy_residual(ctx.number(0)))

    def test_linear(self, ctx):
        # gamma = w: third derivative 0, 6*g*g'' = 0, 9*(g')^2 = 9
        assert fi.chazy_residual(ctx.parse("w")).equals(ctx.number(9))


class TestElimination:
    def test_builtin_flow(self):
        assert fi.elimination_check()

    def test_source_removal_leaves_unit_residual(self):
        case = cat.builtin_case("wdvv3")
        ctx = case.context()
        flow = cat._parse_flow(ctx, case.references["density_flow"])
        nosrc = hy.QuasilinearFlow(
            flow.V, tuple(ctx.number(0) for _ in range(3)))
        residual = fi.elimination_residual(nosrc)
        assert residual.equals(ctx.number(1))

    def test_perturbed_coefficient_fails(self):
        case = cat.builtin_case("wdvv3")
        ctx = case.context()
        flow = cat._parse_flow(ctx, case.references["density_flow"])
        V = [list(row) for row in flow.V]
        V[0][2] = ctx.parse("2*v^3/w^3")
        bad = hy.QuasilinearFlow(tuple(tuple(r) for r in V), flow.sigma)
        assert not fi.elimination_check(bad)


class TestDegenerateSplit:
    def test_wdvv(self):
        assert cat.degenerate_split_check() is True

    def test_astigmatism_regression(self):
        # det(g - eta) = alpha - (beta - 1)^2, nonzero for symbolic alpha, beta
        assert cat.degenerate_split_check(cat.builtin_case("astigmatism")) is False

    def test_metric_equal_to_eta(self):
        data = {
            "name": "eta-case",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [],
            "metric": [["0", "1"], ["1", "0"]],
            "isometry": ["1", "0"],
            "epsilon": "1",
            "c": "0",
        }
        assert cat.degenerate_split_check(cat.CaseRecord(data)) is True


class TestReports:
    def test_report_dict_round_trips(self):
        report = cat.verify_case(cat.builtin_case("g6"))
        payload = report.to_dict()
        again = json.loads(json.dumps(payload))
        assert again == payload
        assert payload["passed"] is True
        assert all("seconds" not in c for c in payload["checks"])

    def test_timings_optional(self):
        report = cat.verify_case(cat.builtin_case("g6"))
        payload = report.to_dict(include_timings=True)
        assert all("seconds" in c for c in payload["checks"])
