import json
from pathlib import Path

import pytest

from pcgl.cli import build_parser, fixture_path, load_presentation, load_presentation_data, main
from pcgl.ideals import Ideal
from pcgl.qpoly import VarTable, parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


WEYL = fixture_path("weyl")
PPLANE = fixture_path("pplane")
BELLSIG = fixture_path("bellsig")
M2 = fixture_path("m2")


class TestCheck:
    def test_weyl_passes(self, capsys):
        code, out, _ = run(capsys, "check", WEYL)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True

    def test_bellsig_fails_flagging_level_four(self, capsys):
        code, out, _ = run(capsys, "check", BELLSIG)
        assert code == 1
        report = json.loads(out)
        level4 = report["levels"][3]
        assert level4["ok"] is False
        assert level4["delta_nilpotent"] is False
        assert level4["h_exists"] is False

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "check", "/nonexistent/nope.json")
        assert code == 2

    def test_unknown_variable_in_bracket(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"vars": ["a", "X"], "brackets": {"2,1": "q*X"}, "grading": []}'
        )
        code, _, _ = run(capsys, "check", str(bad))
        assert code == 2

    def test_bad_bracket_key(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vars": ["a", "X"], "brackets": {"1,2": "a"}, "grading": []}')
        code, _, _ = run(capsys, "check", str(bad))
        assert code == 2

    def test_wrong_h_shape(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"vars": ["a", "X"], "brackets": {"2,1": "a*X"},'
            ' "grading": [[1, 0], [0, 1]], "h": [["1", "0"]]}'
        )
        code, _, _ = run(capsys, "check", str(bad))
        assert code == 2

    def test_level_out_of_range(self, capsys):
        code, _, _ = run(capsys, "theta", WEYL, "--level", "5", "a")
        assert code == 2


class TestComputations:
    def test_theta(self, capsys):
        code, out, _ = run(capsys, "theta", WEYL, "--level", "2", "a")
        assert code == 0
        assert out.strip() == "a - X^-1"

    def test_normal(self, capsys):
        code, out, _ = run(capsys, "normal", WEYL, "--level", "2", "a")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a*X - 1"
        assert "poisson-normal: verified" in lines[1]

    def test_normal_rejects_bad_input(self, capsys):
        code, _, err = run(capsys, "normal", M2, "--level", "4", "a + b")
        assert code == 1

    def test_d(self, capsys):
        code, out, _ = run(capsys, "d", WEYL, "--level", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1/a"
        assert "sigma(d) = lambda*d: verified" in lines[1]

    def test_d_with_modulo(self, capsys):
        code, _, _ = run(capsys, "d", M2, "--level", "4", "--modulo", "b;c")
        assert code == 0

    def test_d_inconclusive(self, capsys):
        code, _, err = run(capsys, "d", WEYL, "--level", "2", "--modulo", "a")
        assert code == 1
        assert "inconclusive" in err

    @pytest.mark.parametrize("modulo", ["1", "a;a - 1", "2;a"])
    def test_d_modulo_must_be_proper(self, capsys, modulo):
        # the quotient by the unit ideal is the zero ring: an input error,
        # not an inconclusive search
        code, out, err = run(capsys, "d", WEYL, "--level", "2", "--modulo", modulo)
        assert code == 2 and not out
        assert err == "error: --modulo must generate a proper ideal\n"


class TestHPrimes:
    def test_pplane_square_poset(self, capsys):
        code, out, _ = run(capsys, "hprimes", PPLANE)
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 4
        dot_code, dot_out, _ = run(capsys, "hprimes", PPLANE, "--format", "dot")
        assert dot_code == 0
        assert dot_out.count("->") == 4

    def test_weyl(self, capsys):
        code, out, _ = run(capsys, "hprimes", WEYL)
        assert json.loads(out)["count"] == 2

    def test_m2(self, capsys):
        code, out, _ = run(capsys, "hprimes", M2)
        data = json.loads(out)
        assert data["count"] == 14
        assert data["inconclusive"] is False

    def test_failing_presentation(self, capsys):
        code, out, err = run(capsys, "hprimes", BELLSIG)
        assert code == 1 and not out
        assert err == "error: presentation fails the tower axioms\n"


class TestLaurentVariables:
    """The ideal layer computes over polynomial variables only, so the
    commands that build ideals refuse a Laurent-flagged file; X is a unit
    there, and (X) would be counted as a proper prime."""

    DATA = {"vars": ["a", "X"], "laurent": [False, True],
            "brackets": {"2,1": "-a*X"}, "grading": [[-1, 1]]}

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "laurent.json"
        path.write_text(json.dumps(self.DATA))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["hprimes"],
        ["chain", "--ideal", "0", "--ideal", "X"],
        ["hcore", "-g", "X"],
        ["closure", "-g", "a"],
    ])
    def test_ideal_commands_refuse(self, capsys, path, argv):
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Laurent variable X" in err

    def test_other_commands_keep_their_output(self, capsys, path):
        code, out, _ = run(capsys, "check", path)
        assert code == 0 and json.loads(out)["ok"] is True
        assert run(capsys, "theta", path, "--level", "2", "a") == (0, "a\n", "")
        code, out, _ = run(capsys, "center", path)
        assert code == 0
        assert json.loads(out) == {"center": "QQ", "kernel_basis": [], "kernel_rank": 0}
        code, out, _ = run(capsys, "d", path, "--level", "2")
        assert code == 0
        assert out == (
            "0\nsigma(d) = lambda*d: verified\ndelta(d) = -lambda*d^2: verified\n"
        )

    def test_d_refuses_a_flag_below_its_level(self, capsys, tmp_path):
        # the ideals of d live in A = Q[a], where a is now the unit
        path = tmp_path / "laurent_a.json"
        path.write_text(json.dumps({**self.DATA, "laurent": [True, False]}))
        code, out, err = run(capsys, "d", str(path), "--level", "2")
        assert code == 1 and not out
        assert err.count("\n") == 1 and "Laurent variable a" in err


class TestReports:
    def test_closure(self, capsys):
        code, out, _ = run(capsys, "closure", BELLSIG, "-g", "x")
        assert code == 0
        assert json.loads(out)["generators"] == ["x", "y*z"]

    def test_hcore(self, capsys):
        code, out, _ = run(capsys, "hcore", WEYL, "-g", "a + X^2")
        assert code == 0
        assert json.loads(out)["generators"] == []

    def test_chain(self, capsys):
        code, out, _ = run(
            capsys,
            "chain",
            BELLSIG,
            "--ideal", "0",
            "--ideal", "x;y",
            "--ideal", "x;y;z",
        )
        assert code == 0
        data = json.loads(out)
        assert data["length"] == 2
        assert data["dimension_drops"] == [2, 1]
        assert data["all_drops_one"] is False

    @pytest.mark.parametrize("ideals, message", [
        # the unit ideal is refused before any link is compared
        (["0", "x;x - 1", "x"], "chain entry 2 is the unit ideal"),
        (["1"], "chain entry 1 is the unit ideal"),
        (["0", "x", "y"], "chain is not increasing: entry 2 is not inside entry 3"),
        (["0", "x", "x;x^2"], "chain is not strictly increasing: entries 2 and 3 are equal"),
    ])
    def test_chain_errors_name_the_entry(self, capsys, ideals, message):
        argv = ["chain", BELLSIG]
        for spec in ideals:
            argv += ["--ideal", spec]
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_center_pplane(self, capsys):
        code, out, _ = run(capsys, "center", PPLANE)
        assert code == 0
        assert json.loads(out)["center"] == "QQ"

    def test_center_weyl_not_affine(self, capsys):
        code, _, err = run(capsys, "center", WEYL)
        assert code == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", WEYL),
            ("hprimes", M2),
            ("closure", BELLSIG, "-g", "x"),
            ("center", PPLANE),
            ("chain", BELLSIG, "--ideal", "0", "--ideal", "z"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def test_parser_built_once():
    # every main call in a process parses with the same parser object
    assert build_parser() is build_parser()


def test_fixture_loader_roundtrip():
    pres, bounds = load_presentation(M2)
    assert pres.nvars == 4
    assert pres.grading.rank == 4


def test_file_step_budget_is_scoped_to_its_command(capsys, tmp_path):
    # groebner_steps bounds the command that loads the file, and no later call
    ctx = VarTable(("x", "y", "z"))

    def basis_size():
        return len(Ideal(ctx, [parse("x^2 - y", ctx), parse("x*y - z", ctx)]).groebner())

    data = json.loads(Path(WEYL).read_text())
    data["bounds"] = {"groebner_steps": 1}
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(data))
    load_presentation_data(data)
    assert basis_size() == 3
    # main runs the command in a `with step_limit(1):` block
    code, out, err = run(capsys, "hcore", str(tight), "-g", "a + X^2")
    assert code == 1 and not out and "budget of 1 exceeded" in err
    assert basis_size() == 3


def test_budget_overrun_is_one_error_line(capsys, tmp_path):
    data = json.loads(Path(WEYL).read_text())
    data["bounds"] = {"groebner_steps": 1}
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(data))
    code, out, err = run(capsys, "hcore", str(tight), "-g", "a + X^2")
    assert (code, out, err) == (1, "", "error: Groebner step budget of 1 exceeded\n")


def test_hprimes_out_of_budget_is_inconclusive(capsys, tmp_path):
    # a step budget that runs out gives a flagged tree, not an error
    data = json.loads(Path(M2).read_text())
    data["bounds"] = {"groebner_steps": 1}
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(data))
    code, out, err = run(capsys, "hprimes", str(tight))
    assert code == 0 and not err
    tree = json.loads(out)
    assert tree["inconclusive"] is True and 0 < tree["count"] < 14


@pytest.mark.parametrize("command", [("d", WEYL, "--level", "2"), ("hprimes", M2)])
def test_degree_bound_flag_is_gone(capsys, command):
    # the d-search takes its ansatz degree from each candidate d
    with pytest.raises(SystemExit) as exc:
        main([*command, "--degree-bound", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree-bound 4" in capsys.readouterr().err


def test_file_degree_bound_is_unknown(capsys, tmp_path):
    data = json.loads(Path(WEYL).read_text())
    data["bounds"] = {"degree": 4}
    path = tmp_path / "degree.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "d", str(path), "--level", "2")
    assert code == 2 and not out
    assert err == "error: unknown key bounds.degree; expected one of nilpotency, groebner_steps\n"


def test_directory_as_file(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "entry", ["(" * 3000 + "a*X" + ")" * 3000, "-" * 3000 + "a*X"], ids=["parens", "minus"]
)
def test_deeply_nested_bracket_entry(capsys, tmp_path, entry):
    data = json.loads(Path(WEYL).read_text())
    data["brackets"] = {"2,1": entry}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and not out
    assert err.startswith("error: expression nested too deeply") and len(err.splitlines()) == 1


GOLDEN = Path(__file__).parent / "golden" / "cli"

# The README commands; tests/golden/cli/<name>.out holds each one's stdout.
README_COMMANDS = {
    "check_weyl": ("check", WEYL),
    "theta_weyl": ("theta", WEYL, "--level", "2", "a"),
    "normal_weyl": ("normal", WEYL, "--level", "2", "a"),
    "d_weyl": ("d", WEYL, "--level", "2"),
    "hprimes_m2": ("hprimes", M2),
    "hprimes_m2_dot": ("hprimes", M2, "--format", "dot"),
    "closure_bellsig": ("closure", BELLSIG, "-g", "x"),
    "hcore_weyl": ("hcore", WEYL, "-g", "a + X^2"),
    "chain_bellsig": ("chain", BELLSIG, "--ideal", "0", "--ideal", "x;y", "--ideal", "x;y;z"),
    "center_pplane": ("center", PPLANE),
}


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_golden_stdout(capsys, name):
    code, out, _ = run(capsys, *README_COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()
