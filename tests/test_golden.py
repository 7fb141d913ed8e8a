"""Outputs pinned byte for byte against files under tests/golden/.

The files were written by the program itself, for example
``pencil-forge recursion g1 --format json > tests/golden/recursion/g1.json``
and ``pencil-forge magri wdvv3 --density "-u" --steps 2`` (stdout to
``.out``, stderr to ``.err``).  The perturbed reports are
``verify_case(builtin_case(name).perturb_metric_entry(i, j)).to_dict()``
dumped as the CLI dumps JSON; their witnesses name the first or last
failing tensor component.  The ``verify --format json`` files are compared
in test_acceptance.py against the catalog run it already makes.
"""

from pathlib import Path

import pytest

from pencil_forge import catalog as cat
from pencil_forge import cli

GOLDEN = Path(__file__).parent / "golden"

RECURSION_CASES = [
    "astigmatism", "g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8", "wdvv3",
]


@pytest.mark.parametrize("name", RECURSION_CASES)
def test_recursion_json(name, capsys):
    assert cli.main(["recursion", name, "--format", "json"]) == 0
    golden = (GOLDEN / "recursion" / f"{name}.json").read_text()
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name, density", [("astigmatism", "-2*v"), ("wdvv3", "-u")])
def test_magri_two_steps(name, density, capsys):
    # the second step leaves the hydrodynamic class in both cases
    assert cli.main(["magri", name, "--density", density, "--steps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / "magri" / f"{name}.out").read_text()
    assert captured.err == (GOLDEN / "magri" / f"{name}.err").read_text()


@pytest.mark.parametrize("name, i, j", [
    ("g5", 0, 0), ("g3", 0, 1), ("g7", 0, 0),
    ("astigmatism", 0, 0), ("astigmatism", 0, 1),
])
def test_perturbed_report(name, i, j):
    report = cat.verify_case(cat.builtin_case(name).perturb_metric_entry(i, j))
    golden = (GOLDEN / "perturbed" / f"{name}-{i+1}{j+1}.json").read_text()
    assert cli._dump_json(report.to_dict()) + "\n" == golden
