"""Tests of the independent reference evaluator on metrics with known
curvature and known isometries.  Run with ``python3 -m pytest perfbench``."""

from reference import reference_verdicts


def _case(metric, isometry, c="0", parameters=(), functions=()):
    n = len(metric)
    return {
        "name": "t",
        "coordinates": ["u", "v", "w"][:n],
        "parameters": list(parameters),
        "functions": list(functions),
        "metric": metric,
        "isometry": isometry,
        "c": c,
    }


# the unit sphere in stereographic coordinates: g_ij = 4/(1 + u^2 + v^2)^2
SPHERE = [["(1 + u^2 + v^2)^2/4", "0"], ["0", "(1 + u^2 + v^2)^2/4"]]


def test_constant_metric_is_flat_and_translations_are_killing():
    data = _case([["a", "b"], ["b", "1"]], ["1", "0"],
                 parameters=[{"name": "a", "nonzero": "a - b^2"}, {"name": "b"}])
    got = reference_verdicts(data, seed=1)
    assert got == {"curvature_constant": True, "killing": True, "samples": 3}


def test_scaling_is_not_killing_for_a_constant_metric():
    got = reference_verdicts(_case([["1", "0"], ["0", "1"]], ["u", "v"]), seed=2)
    assert got["curvature_constant"] and not got["killing"]


def test_sphere_has_curvature_one():
    assert not reference_verdicts(_case(SPHERE, ["-v", "u"]), seed=3)["curvature_constant"]
    assert reference_verdicts(_case(SPHERE, ["-v", "u"], c="1"), seed=3)["curvature_constant"]
    assert not reference_verdicts(_case(SPHERE, ["-v", "u"], c="2"), seed=3)["curvature_constant"]


def test_sphere_rotation_is_killing_and_translation_is_not():
    assert reference_verdicts(_case(SPHERE, ["-v", "u"], c="1"), seed=4)["killing"]
    assert not reference_verdicts(_case(SPHERE, ["1", "0"], c="1"), seed=4)["killing"]


def test_radical_metric_is_evaluated_at_high_precision():
    # flat: g = diag(h(u), 1) with h = (u + sqrt(u^2 + 1))^2 has a coordinate
    # change to the Euclidean metric; translation in v is an isometry
    h = "(u + sqrt(u^2 + 1))^2"
    got = reference_verdicts(_case([[h, "0"], ["0", "1"]], ["0", "1"]), seed=5)
    assert got == {"curvature_constant": True, "killing": True, "samples": 3}
    got = reference_verdicts(_case([[h, "0"], ["0", "v"]], ["0", "1"]), seed=5)
    assert not got["killing"]


def test_function_atoms_become_polynomials():
    data = _case([["g(v)", "k(v)"], ["k(v)", "0"]], ["1", "0"],
                 functions=[{"name": "g", "arg": "v"},
                            {"name": "k", "arg": "v", "nonzero": True}])
    got = reference_verdicts(data, seed=6)
    assert got["killing"]
    got = reference_verdicts(_case([["g(u)", "1"], ["1", "0"]], ["1", "0"],
                                   functions=[{"name": "g", "arg": "u"}]), seed=6)
    assert not got["killing"]


def test_same_seed_same_verdicts_for_the_three_component_case():
    metric = [["v^3/w^2", "-3*v^2/(2*w)", "-v + 1"],
              ["-3*v^2/(2*w)", "2*v + 1", "w"],
              ["-v + 1", "w", "0"]]
    data = _case(metric, ["1", "0", "0"])
    assert reference_verdicts(data, seed=7) == reference_verdicts(data, seed=7)
    assert reference_verdicts(data, seed=7)["curvature_constant"]
