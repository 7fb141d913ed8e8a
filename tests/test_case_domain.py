"""Case expressions outside their domain are refused when the record
parses them: metric entries and isometry components may hold fields and
parameters (function atoms count by their argument), epsilon and c only
parameters, and every entry must have a normal form.  A case file exits 2
with one stderr line; a record built in memory reports a well_formed
error."""

import json

import pytest

from pencil_forge import catalog as cat
from pencil_forge import cli

FLAT = {
    "name": "flat",
    "n": 2,
    "coordinates": ["u", "v"],
    "parameters": [{"name": "alpha"}],
    "metric": [["1", "0"], ["0", "1"]],
    "isometry": ["1", "0"],
}


@pytest.mark.parametrize("change, message", [
    ({"epsilon": "u"}, "epsilon 'u' holds u, which is not a parameter"),
    ({"c": "v"}, "c 'v' holds v, which is not a parameter"),
    ({"metric": [["x", "0"], ["0", "1"]]},
     "metric entry (1,1) 'x' holds x, which is not a field or parameter"),
    ({"metric": [["1", "0"], ["0", "u_x"]]},
     "metric entry (2,2) 'u_x' holds u_x, which is not a field or parameter"),
    ({"isometry": ["t", "0"]},
     "isometry component 1 't' holds t, which is not a field or parameter"),
])
def test_case_file_exits_two(tmp_path, capsys, change, message):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**FLAT, **change}))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: expression error in {path}: {message}"]


# (change, the entry it names, the kernel's message)
NO_NORMAL_FORM = [
    ({"metric": [["sqrt(ln(u))", "0"], ["0", "1"]]}, "metric entry (1,1) 'sqrt(ln(u))'",
     "nested radical or logarithm in radicand log(u)"),
    ({"isometry": ["u*sqrt(1 + ln(u))", "0"]}, "isometry component 1 'u*sqrt(1 + ln(u))'",
     "nested radical or logarithm in radicand log(u) + 1"),
    ({"epsilon": "ln(ln(alpha))"}, "epsilon 'ln(ln(alpha))'",
     "logarithm inside logarithm argument log(alpha)"),
    ({"c": "sqrt(1 + sqrt(alpha))"}, "c 'sqrt(1 + sqrt(alpha))'",
     "nested radical or logarithm in radicand sqrt(alpha) + 1"),
]


@pytest.mark.parametrize("change, entry, message", NO_NORMAL_FORM,
                         ids=[f"change{i}-{m}" for i, (_, _, m) in enumerate(NO_NORMAL_FORM)])
def test_entry_without_normal_form_exits_two(tmp_path, capsys, change, entry, message):
    # each entry parses, but lies outside the class the kernel normalizes;
    # the message names the entry and its text, as the domain errors do
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**FLAT, **change}))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: expression error in {path}: {entry} has no normal form: {message}"
    ]


def test_in_memory_record_reports_well_formed_error():
    report = cat.verify_case(cat.CaseRecord({**FLAT, "epsilon": "alpha*v"}))
    assert [(c.name, c.status) for c in report.checks] == [("well_formed", "error")]
    assert report["well_formed"].witness == (
        "ValueError: epsilon 'alpha*v' holds v, which is not a parameter"
    )


def test_in_memory_entry_without_normal_form_reports_well_formed_error():
    # the same parse names the entry for built-in records and case files
    report = cat.verify_case(cat.CaseRecord({**FLAT, "metric": [["sqrt(ln(u))", "0"], ["0", "1"]]}))
    assert [(c.name, c.status) for c in report.checks] == [("well_formed", "error")]
    assert report["well_formed"].witness == (
        "ValueError: metric entry (1,1) 'sqrt(ln(u))' has no normal form:"
        " nested radical or logarithm in radicand log(u)"
    )


def test_parameters_and_fields_stay_allowed():
    record = cat.CaseRecord({**FLAT, "epsilon": "alpha^2", "c": "0",
                             "metric": [["1 + alpha*u", "0"], ["0", "1"]]})
    assert cat.verify_case(record)["well_formed"].passed
