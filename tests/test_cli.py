import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fampersist
from fampersist.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_error_is_a_value_error():
    """main sends every ValueError but IOFormatError to exit 3."""
    errors = [getattr(fampersist, name) for name in fampersist.__all__
              if name.endswith("Error")]
    assert len(errors) == 6
    assert all(issubclass(error, ValueError) for error in errors)


class TestModuleCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "module", "--example", "hat",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,c,dim"
        assert "0,1,2,1" in lines

    def test_json_deterministic(self, capsys):
        first = run(capsys, "module", "--example", "zigzag:2")
        second = run(capsys, "module", "--example", "zigzag:2")
        assert first == second
        assert first[0] == 0
        data = json.loads(first[1])
        assert data["degree"] == 0 and data["field"] == 2

    def test_max_degree_report(self, capsys):
        code, out, _ = run(capsys, "module", "--example", "cylinder:4",
                           "--max-degree", "1")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"0", "1"}
        assert data["0"]["degree"] == 0 and data["1"]["degree"] == 1

    def test_max_degree_csv_rejected(self, capsys):
        code, _, err = run(capsys, "module", "--example", "hat",
                           "--max-degree", "1", "--format", "csv")
        assert code == 3 and "csv" in err

    def test_negative_max_degree_rejected(self, capsys):
        code, out, err = run(capsys, "module", "--example", "hat",
                             "--max-degree", "-1")
        assert code == 3 and out == "" and "max degree" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "mod.json"
        code, out, _ = run(capsys, "module", "--example", "hat",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["degree"] == 0

    def test_composite_field_rejected(self, capsys):
        code, _, err = run(capsys, "module", "--example", "hat",
                           "--field", "4")
        assert code == 3 and "prime" in err

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, "module", "--example", "torus")
        assert code == 2 and "unknown example" in err

    @pytest.mark.parametrize("name", ["zigzag:abc", "cylinder:x"])
    def test_non_integer_example_size(self, capsys, name):
        code, _, err = run(capsys, "module", "--example", name)
        assert code == 2 and "not an integer" in err

    def test_out_of_range_example_size(self, capsys):
        code, _, _ = run(capsys, "module", "--example", "zigzag:0")
        assert code == 3

    def test_missing_source(self, capsys):
        code, _, _ = run(capsys, "module")
        assert code == 2

    def test_family_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "module", "--example",
                           "wrinkled-cylinder", "--emit-family")
        assert code == 0
        path = tmp_path / "family.json"
        path.write_text(out)
        code2, out2, _ = run(capsys, "module", "--family", str(path),
                             "--emit-family")
        assert code2 == 0 and out2 == out
        direct = run(capsys, "module", "--example", "wrinkled-cylinder")
        loaded = run(capsys, "module", "--family", str(path))
        assert direct == loaded

    def test_missing_family_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "module", "--family",
                         str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_family_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "module", "--family", str(path))
        assert code == 2

    @pytest.mark.parametrize("rows", [
        [["0", "1", "0"], ["1", "0", "1"]],  # two rows, three breakpoints
        [["0", "1", "0"], ["1", "0"], ["0", "1", "0"]],  # short row
        [["0", "1", "0"], ["1", "0", "1", "2"], ["0", "1", "0"]],  # long row
    ])
    def test_vertex_values_shape_mismatch(self, capsys, tmp_path, rows):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({
            "base": {"vertices": 3, "simplices": [[0, 1], [1, 2]]},
            "time_breakpoints": ["0", "1/2", "1"],
            "vertex_values": rows,
        }))
        code, _, err = run(capsys, "module", "--family", str(path))
        assert code == 2 and "vertex_values" in err


    @pytest.mark.parametrize("values", [
        [["0", "1"], ["1", True]],
        [["0", "1"], [False, "1"]],
    ], ids=["true", "false"])
    def test_boolean_value_rejected(self, capsys, tmp_path, values):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({
            "base": {"vertices": 2, "simplices": [[0, 1]]},
            "time_breakpoints": ["0", "1"],
            "vertex_values": values,
        }))
        code, out, err = run(capsys, "module", "--family", str(path))
        assert code == 2 and out == ""
        assert "bad family description" in err

    @pytest.mark.parametrize("vertices, simplices", [
        (True, [[0.9]]),
        ("2", [[0, 1]]),
        (2.0, [[0, 1]]),
        (2, [[0, True]]),
        (2, [[0, 1.0]]),
        (2, [["0", 1]]),
        (2, ["01"]),
    ], ids=["true-vertices", "string-vertices", "float-vertices",
            "true-id", "float-id", "string-id", "string-simplex"])
    def test_non_integer_base_rejected(self, capsys, tmp_path, vertices,
                                       simplices):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({
            "base": {"vertices": vertices, "simplices": simplices},
            "time_breakpoints": ["0", "1"],
            # int() would read each of these bases as a valid one
            "vertex_values": [["0", "1"][:int(vertices)],
                              ["1", "0"][:int(vertices)]],
        }))
        code, out, err = run(capsys, "module", "--family", str(path))
        assert code == 2 and out == ""
        assert "bad family description: expected an integer" in err

    @pytest.mark.parametrize("times, values, simplices", [
        ("01", ["01", "10"], [[0, 1]]),
        ({"0": 1, "1": 0}, [{"0": 1, "1": 0}, {"1": 0, "0": 1}], [[0, 1]]),
        (["0", "1"], ["01", "10"], [[0, 1]]),
        (["0", "1"], {"01": 0, "10": 1}, [[0, 1]]),
        (["0", "1"], [["0", "1"], ["1", "0"]], {}),
        (["0", "1"], [["0", "1"], ["1", "0"]], [[0, 1], ""]),
    ], ids=["string", "object", "string-rows", "object-rows",
            "object-simplices", "empty-string-simplex"])
    def test_non_list_rejected(self, capsys, tmp_path, times, values,
                               simplices):
        """Strings and objects iterate, but are no JSON lists."""
        path = tmp_path / "family.json"
        path.write_text(json.dumps({
            "base": {"vertices": 2, "simplices": simplices},
            "time_breakpoints": times,
            "vertex_values": values,
        }))
        code, out, err = run(capsys, "module", "--family", str(path),
                             "--format", "csv")
        assert code == 2 and out == ""
        assert "bad family description: expected a list" in err


class TestBadRationals:
    @pytest.mark.parametrize("argv", [
        ("stability", "--example", "hat", "--example2", "hat",
         "--epsilon", "abc"),
        ("cerf", "--example", "hat", "--strip", "0,1,x"),
    ])
    def test_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "cannot parse rational" in err

    @pytest.mark.parametrize("flag, value", [("--bandwidth", "1:x"),
                                             ("--box", "a:1")])
    def test_density_range_exit_2(self, capsys, tmp_path, flag, value):
        data = tmp_path / "samples.csv"
        data.write_text("0\n1\n")
        # a repeated --bandwidth takes the last value
        code, _, err = run(capsys, "kde", "--data", str(data),
                           "--bandwidth", "1/2:1", flag, value)
        assert code == 2 and "cannot parse rational" in err


    @pytest.mark.parametrize("source, value", [
        ("family", "1e999999999"),
        ("family", "-2.5E-999999999"),
        ("csv", "1e999999999"),
        ("--bandwidth", "1/4:1e999999999"),
        ("--box", "0:1e4301"),
        ("--strip", "0,1,1e-999999999"),
    ])
    def test_huge_exponent_exit_2(self, tmp_path, source, value):
        # Fraction would build 10**999999999; a subprocess with a timeout
        # keeps a hang from stalling the suite.
        if source == "family":
            path = tmp_path / "family.json"
            path.write_text(json.dumps({
                "base": {"vertices": 1, "simplices": []},
                "time_breakpoints": ["0", "1"],
                "vertex_values": [["0"], [value]],
            }))
            argv = ("module", "--family", str(path))
        elif source == "--strip":
            argv = ("cerf", "--example", "hat", "--strip", value)
        else:
            data = tmp_path / "samples.csv"
            data.write_text("0\n1\n" + (value if source == "csv" else ""))
            argv = ("kde", "--data", str(data), "--bandwidth", "1/4:1",
                    "--tres", "2", "--xres", "4")
            if source != "csv":
                argv += (source, value)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "fampersist", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "exceeds 4300" in proc.stderr


class TestCerfCommand:
    def test_svg_default(self, capsys):
        code, out, _ = run(capsys, "cerf", "--example", "wrinkled-cylinder")
        assert code == 0
        assert out.startswith("<svg") and "<polyline" in out
        assert "<circle" in out  # birth/death event markers

    def test_strip_overlay(self, capsys):
        code, out, _ = run(capsys, "cerf", "--example", "hat",
                           "--strip", "1/4,3/4,1/2")
        assert code == 0 and "stroke-dasharray" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "cerf", "--example", "hat",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["curves"]) == 1
        assert data["curves"][0]["segments"][0]["index"] == 0

    def test_bad_strip(self, capsys):
        code, _, _ = run(capsys, "cerf", "--example", "hat",
                         "--strip", "1/4,3/4")
        assert code == 2

    def test_reversed_strip(self, capsys):
        code, out, err = run(capsys, "cerf", "--example", "hat",
                             "--strip", "1,0,1/2")
        assert code == 3 and out == "" and "need a <= b" in err

    def test_nongeneric_family_names_the_end(self, capsys, tmp_path):
        # The path family of test_cerf's test_nongeneric_family_rejected.
        path = tmp_path / "family.json"
        path.write_text(json.dumps({
            "base": {"vertices": 3, "simplices": [[0, 1], [1, 2]]},
            "time_breakpoints": ["0", "1/2", "1"],
            "vertex_values": [["0", "1", "2"], ["0", "-1", "2"],
                              ["0", "-1", "2"]],
        }))
        code, out, err = run(capsys, "cerf", "--family", str(path))
        assert code == 3 and out == ""
        assert err == ("error: cannot pair birth endpoints at t=0, value=1: "
                       "family is not generic for this tracer\n")

    @pytest.mark.parametrize("source", [
        "strip", "family", "wide strip", "low strip", "high flat family"])
    def test_outside_float_range_exit_3(self, capsys, tmp_path, source):
        # The last three have finite points only, but the plotted extent
        # with its margins overflows, or rounds to zero height.
        strips = {"strip": "0,1,1e400", "wide strip": "-1.7e308,1.7e308,1",
                  "low strip": "0,1,-1.7e308"}
        values = {"family": ["0", "1e400", "0"],
                  "high flat family": ["1e300"] * 3}
        if source in strips:
            argv = ("--example", "hat", f"--strip={strips[source]}")
        else:
            path = tmp_path / "family.json"
            path.write_text(json.dumps({
                "base": {"vertices": 1, "simplices": []},
                "time_breakpoints": ["0", "1/2", "1"],
                "vertex_values": [[v] for v in values[source]],
            }))
            argv = ("--family", str(path))
        code, out, err = run(capsys, "cerf", *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "outside float range" in err
        code, out, _ = run(capsys, "cerf", *argv, "--format", "json")
        assert code == 0 and json.loads(out)["curves"]


class TestDensityCommands:
    def test_kde_two_points(self, capsys, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("x\n-1\n1\n")
        code, out, _ = run(capsys, "kde", "--data", str(data),
                           "--bandwidth", "1/4:2", "--tres", "5",
                           "--xres", "9", "--summands")
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 0
        assert payload["dims"][0][-1][-1] == 1
        assert "summands" in payload

    def test_kde_deterministic(self, capsys, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("0.5\n1.5\n")
        args = ("kde", "--data", str(data), "--bandwidth", "1/2:1",
                "--tres", "4", "--xres", "8")
        assert run(capsys, *args) == run(capsys, *args)

    def test_kde_header_after_blank_line(self, capsys, tmp_path):
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text("x\n-1\n1/2\n1\n")
        blank.write_text("\nx\n-1\n1/2\n1\n")
        results = [run(capsys, "kde", "--data", str(data), "--bandwidth",
                       "1/4:2", "--tres", "4", "--xres", "8")
                   for data in (plain, blank)]
        assert results[0][0] == 0
        assert results[1] == results[0]

    def test_kde_ignores_unused_text_column(self, capsys, tmp_path):
        plain, labelled = tmp_path / "plain.csv", tmp_path / "labelled.csv"
        plain.write_text("0.5\n1.5\n2.5\n")
        labelled.write_text("0.5,a\n1.5,b\n2.5,c\n")
        results = [run(capsys, "kde", "--data", str(data), "--bandwidth",
                       "1/4:2", "--tres", "4", "--xres", "8")
                   for data in (plain, labelled)]
        assert results[0][0] == 0
        assert results[1] == results[0]

    def test_kde_bad_bandwidth(self, capsys, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("0\n")
        code, _, _ = run(capsys, "kde", "--data", str(data),
                         "--bandwidth", "1")
        assert code == 2

    def test_kde_empty_data(self, capsys, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("")
        code, _, _ = run(capsys, "kde", "--data", str(data),
                         "--bandwidth", "1/2:1")
        assert code in (2, 3)

    def test_regress_step_data(self, capsys, tmp_path):
        data = tmp_path / "pairs.csv"
        data.write_text("x,y\n0,0\n1,0\n2,1\n3,1\n")
        code, out, _ = run(capsys, "regress", "--data", str(data),
                           "--bandwidth", "1/4:1", "--tres", "4",
                           "--xres", "8", "--format", "csv")
        assert code == 0 and out.splitlines()[0] == "a,b,c,dim"

    @pytest.mark.parametrize("command, rows, options", [
        ("kde", "0\n1\n1e400\n", ()),
        ("kde", "0\n1\n1e300\n", ()),  # overflows once snapped
        ("kde", "0\n1\n", ("--bandwidth", "1e-400:1")),
        ("kde", "0\n1\n", ("--bandwidth", "1/4:1e400")),
        ("kde", "0\n1\n", ("--box", "0:1e400")),
        ("kde", "0\n1\n", ("--bandwidth", "1e-300:1e-299")),
        ("regress", "0,0\n1,1e400\n", ()),
        ("regress", "0,1e300\n1,-1e300\n", ()),
    ])
    def test_outside_float_range_exit_3(self, capsys, tmp_path, command,
                                        rows, options):
        data = tmp_path / "samples.csv"
        data.write_text(rows)
        code, out, err = run(capsys, command, "--data", str(data),
                             "--bandwidth", "1/4:1", "--tres", "2",
                             "--xres", "4", *options)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "outside float range" in err

    def test_regress_wrong_columns(self, capsys, tmp_path):
        data = tmp_path / "pairs.csv"
        data.write_text("1\n2\n")
        code, _, _ = run(capsys, "regress", "--data", str(data),
                         "--bandwidth", "1/4:1")
        assert code == 2


class TestStabilityCommand:
    @staticmethod
    def write_shifted_hat(capsys, run_fn, tmp_path):
        from fractions import Fraction
        emit = run_fn(capsys, "module", "--example", "hat", "--emit-family")
        emitted = json.loads(emit[1])
        emitted["vertex_values"] = [
            [str(Fraction(v) + Fraction(1, 4)) for v in row]
            for row in emitted["vertex_values"]]
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(emitted))
        return path

    def test_auto_epsilon_passes(self, capsys, tmp_path):
        path = self.write_shifted_hat(capsys, run, tmp_path)
        code, out, _ = run(capsys, "stability", "--example", "hat",
                           "--family2", str(path))
        assert code == 0
        assert json.loads(out)["overall"] is True

    def test_small_epsilon_fails(self, capsys, tmp_path):
        path = self.write_shifted_hat(capsys, run, tmp_path)
        code, out, _ = run(capsys, "stability", "--example", "hat",
                           "--family2", str(path), "--epsilon", "1/8")
        assert code == 1
        assert json.loads(out)["overall"] is False

    def test_identical_examples(self, capsys):
        code, out, _ = run(capsys, "stability", "--example", "zigzag:2",
                           "--example2", "zigzag:2", "--epsilon", "0")
        assert code == 0 and json.loads(out)["epsilon"] == "0"

    def test_missing_second_family(self, capsys):
        code, _, _ = run(capsys, "stability", "--example", "hat")
        assert code == 2


class TestVerifyCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("ok  ") for line in lines[:-1])
        assert lines[-1] == "overall: pass"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["overall"] is True and len(data["checks"]) >= 7

    def test_tamper_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--tamper")
        assert code == 1
        assert "FAIL" in out


@pytest.mark.parametrize("argv, expected", [
    (("module", "--example", "zigzag:3"), 0),
    (("module", "--example", "wrinkled-cylinder", "--max-degree", "2",
      "--field", "3"), 0),
    (("module", "--example", "wrinkled-cylinder", "--emit-family"), 0),
    (("cerf", "--example", "wrinkled-cylinder", "--format", "json"), 0),
    (("kde",), 0),
    (("kde", "--summands"), 0),
    (("stability", "--example", "hat", "--example2", "zigzag:2",
      "--epsilon", "1/2"), 1),
    (("verify", "--format", "json"), 0),
])
def test_json_output_matches_json_dumps(capsys, tmp_path, argv, expected):
    if argv[0] == "kde":
        data = tmp_path / "samples.csv"
        data.write_text("-1.5\n-1\n0.25\n1\n1.5\n")
        argv += ("--data", str(data), "--bandwidth", "1/4:2", "--tres", "4",
                 "--xres", "8")
    code, out, _ = run(capsys, *argv)
    assert code == expected
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ("module", "--example", "zigzag:2", "--format", "csv"),
    ("module", "--example", "nonesuch"),
])
def test_python_dash_m_runs_the_cli(capsys, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "fampersist", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_consecutive_calls_match_separate_runs(capsys):
    """One process builds the parser once; each later call, a bad argument
    included, writes what a fresh process writes."""
    argvs = [("module", "--example", "zigzag:2", "--format", "csv"),
             ("stability", "--example", "hat", "--example2", "zigzag:2",
              "--epsilon", "1/2"),
             ("module", "--example", "hat", "--degree", "x")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    separate = [subprocess.run([sys.executable, "-m", "fampersist", *argv],
                               env=env, capture_output=True, text=True,
                               timeout=60)
                for argv in argvs]
    build_parser.cache_clear()
    for argv, proc in zip(argvs, separate):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert ((code, captured.out, captured.err)
                == (proc.returncode, proc.stdout, proc.stderr)), argv
    assert [p.returncode for p in separate] == [0, 1, 2]
    assert build_parser.cache_info().misses == 1
