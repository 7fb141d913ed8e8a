"""Command-line behavior: exit codes, formats, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pencil_forge import catalog as cat
from pencil_forge import cli
from pencil_forge import symcore as sc

SRC = Path(__file__).resolve().parent.parent / "src"


NONFLAT_CASE = {
    "name": "round-sphere",
    "n": 2,
    "coordinates": ["u", "v"],
    "parameters": [],
    "metric": [
        ["(1 + (u^2 + v^2)/4)^2", "0"],
        ["0", "(1 + (u^2 + v^2)/4)^2"],
    ],
    "isometry": ["v", "-u"],
    "epsilon": "1",
    "c": "0",
}


class TestVerify:
    def test_builtin_pass_exit_zero(self, capsys):
        assert cli.main(["verify", "astigmatism"]) == 0
        out = capsys.readouterr().out
        assert "case astigmatism: PASS" in out

    def test_nonflat_case_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "mycase.json"
        path.write_text(json.dumps(NONFLAT_CASE))
        assert cli.main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[fail]" in out
        assert "R^" in out  # flatness witness names a curvature component

    def test_missing_file_exit_two(self, capsys):
        assert cli.main(["verify", "missing.json"]) == 2
        err = capsys.readouterr().err
        assert "missing.json" in err

    def test_unknown_builtin_exit_two(self, capsys):
        assert cli.main(["verify", "g10"]) == 2
        assert "builtin cases" in capsys.readouterr().err

    def test_schema_violation_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "x", "n": 2}))
        assert cli.main(["verify", str(path)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_bad_expression_exit_two(self, tmp_path, capsys):
        data = dict(NONFLAT_CASE)
        data["metric"] = [["q + 1", "0"], ["0", "1"]]
        path = tmp_path / "badexpr.json"
        path.write_text(json.dumps(data))
        assert cli.main(["verify", str(path)]) == 2
        assert "unknown symbol" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert cli.main(["verify", "g6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "g6"
        assert payload["passed"] is True

    def test_non_symmetric_metric_reports_failure(self, tmp_path, capsys):
        data = dict(NONFLAT_CASE)
        data["metric"] = [["1", "u"], ["0", "1"]]
        path = tmp_path / "nonsym.json"
        path.write_text(json.dumps(data))
        assert cli.main(["verify", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["passed"] is False
        assert payload["checks"][-1] == {"name": "metric_symmetric", "status": "fail"}

    def test_case_file_text_parsed_once(self, tmp_path, monkeypatch, capsys):
        # g7 without reference tables: 4 metric entries, 2 isometry
        # components, epsilon, c and one assumption are 9 texts
        data = dict(cat.builtin_case("g7").data)
        data.pop("references")
        path = tmp_path / "g7.json"
        path.write_text(json.dumps(data))
        parsed = []
        parse = sc.Context.parse
        monkeypatch.setattr(
            sc.Context, "parse", lambda ctx, text: parsed.append(text) or parse(ctx, text)
        )
        assert cli.main(["verify", str(path)]) == 0
        assert "case g7: PASS" in capsys.readouterr().out
        assert len(parsed) == 9


class TestHostileInput:
    @staticmethod
    def verify_entry(tmp_path, entry):
        data = dict(NONFLAT_CASE)
        data["metric"] = [[entry, "0"], ["0", "1"]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "pencil_forge.cli", "verify", str(path)],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        return lines[0]

    def test_huge_exponent_exits_two_quickly(self, tmp_path):
        # without the parse-time cap, normalizing this entry does not end
        line = self.verify_entry(tmp_path, "(u+v)^100000 - 1")
        assert "exponent 100000 exceeds 64" in line
        assert "column 7" in line

    @pytest.mark.parametrize("entry, message, column", [
        ("((u+v)^64)^64 - 1", "exponent 4096 exceeds 64", 11),
        ("(u+v)^64*(u+v)^64 - 1", "exponent 128 exceeds 64", 9),
        ("(((2^64)^64)^64)^64*u", "exceeds 1024 bits", 9),
        ("((u+v)^64 + 1)^64 - 1", "degree 4096 exceeds 128", 15),
    ])
    def test_built_size_caps_exit_two(self, tmp_path, entry, message, column):
        line = self.verify_entry(tmp_path, entry)
        assert message in line
        assert f"column {column}" in line


class TestBrokenPipe:
    # the reading end of stdout is closed before the program starts, so
    # the first write (or the final flush, when stdout is buffered) fails
    @pytest.mark.parametrize("argv", [
        ["catalog", "list"], ["verify", "g1", "--format", "json"],
    ])
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_reader_exits_quietly(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pencil_forge.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr.decode()
        assert proc.stderr == b""
        assert proc.returncode == 141


class TestRecursion:
    def test_constant_family_text(self, capsys):
        assert cli.main(["recursion", "g6"]) == 0
        out = capsys.readouterr().out
        assert "beta*Dx + Dx^-1" in out
        assert "alpha*Dx + Dx^-1" in out
        assert "* Dx^-1" in out

    def test_no_reference_annotated(self, capsys):
        assert cli.main(["recursion", "g9"]) == 0
        out = capsys.readouterr().out
        assert "no printed reference" in out

    def test_json_matrix(self, capsys):
        assert cli.main(["recursion", "g3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trailing"] == "Dx^-1"
        assert payload["entries"][0][0]["dx"] == "beta"
        assert payload["entries"][0][1]["tails"] == [["1", "1"]]


class TestMagri:
    def test_astigmatism_step(self, capsys):
        assert cli.main([
            "magri", "astigmatism", "--density", "-2*v", "--steps", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "h_1" in out
        assert "ln(u)" in out

    def test_wdvv_step(self, capsys):
        assert cli.main([
            "magri", "wdvv3", "--density", "-u", "--steps", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "h_1" in out
        # the regenerated flow is the stored nonhomogeneous system
        assert "w_t = (1)*v_x" in out

    def test_jet_density_exit_two(self, capsys):
        assert cli.main(["magri", "astigmatism", "--density", "u*u_x"]) == 2
        assert "jet variables" in capsys.readouterr().err

    def test_obstruction_exit_one(self, capsys):
        # second step: the nonlocal kernel becomes field-dependent
        assert cli.main([
            "magri", "astigmatism", "--density", "-2*v", "--steps", "2",
        ]) == 1
        err = capsys.readouterr().err
        assert "NonlocalUnresolved" in err


class TestCatalog:
    def test_list_text(self, capsys):
        assert cli.main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "11 builtin cases" in out
        for name in ("g1", "g9", "astigmatism", "wdvv3"):
            assert name in out

    def test_list_json(self, capsys):
        assert cli.main(["catalog", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in payload] == [
            "astigmatism", "g1", "g2", "g3", "g4", "g5",
            "g6", "g7", "g8", "g9", "wdvv3",
        ]

    def test_export_and_reload_byte_identical(self, tmp_path, capsys):
        out_dir = tmp_path / "cases"
        assert cli.main(["catalog", "export", str(out_dir)]) == 0
        capsys.readouterr()
        files = sorted(os.listdir(out_dir))
        assert len(files) == 11

        assert cli.main(["verify", str(out_dir / "g5.json"), "--format", "json"]) == 0
        from_file = capsys.readouterr().out
        assert cli.main(["verify", "g5", "--format", "json"]) == 0
        from_builtin = capsys.readouterr().out
        assert from_file == from_builtin

    def test_export_twice_deterministic(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        assert cli.main(["catalog", "export", str(d1)]) == 0
        assert cli.main(["catalog", "export", str(d2)]) == 0
        for name in os.listdir(d1):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
