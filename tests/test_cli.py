import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pcgl import cli, ideals
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
    "chain_m2": (
        "chain", M2, "--ideal", "0", "--ideal", "b*c - a*d", "--ideal", "c;d",
        "--ideal", "b;c;d", "--ideal", "a;b;c;d",
    ),
    "center_pplane": ("center", PPLANE),
}


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

    @pytest.mark.parametrize("content,message", [
        (b"{not json",
         "malformed JSON: Expecting property name enclosed in double quotes:"
         " line 1 column 2 (char 1)"),
        (b'\xef\xbb\xbf{"vars": ["a"]}',
         "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig):"
         " line 1 column 1 (char 0)"),
        (b'{"vars": ["\xff"]}',
         "malformed JSON: 'utf-8' codec can't decode byte 0xff in position 11:"
         " invalid start byte"),
        # the offset counts each CRLF as one character, as text mode reads it
        (b'{\r\n"vars": ["a"],\r\n "h" 1\r\n}\r\n',
         "malformed JSON: Expecting ':' delimiter: line 3 column 6 (char 22)"),
        (b'["a"]\n', "presentation file must be a JSON object"),
    ], ids=["not_json", "bom", "invalid_utf8", "crlf", "array"])
    def test_malformed_json(self, capsys, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run(capsys, "check", str(bad)) == (2, "", f"error: {message}\n")
        # a failed load is not kept: the file mended in place loads
        bad.write_text(Path(WEYL).read_text())
        code, out, err = run(capsys, "check", str(bad))
        assert code == 0 and json.loads(out)["ok"] and not err

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


def budgeted(tmp_path, path, steps):
    """A copy of the presentation file at `path` whose bounds.groebner_steps
    is `steps`."""
    data = json.loads(Path(path).read_text())
    data["bounds"] = {"groebner_steps": steps}
    copy = tmp_path / f"steps{steps}-{Path(path).name}"
    copy.write_text(json.dumps(data))
    return str(copy)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", WEYL),
            ("hprimes", M2),
            ("closure", BELLSIG, "-g", "x"),
            ("center", PPLANE),
            ("chain", BELLSIG, "--ideal", "0", "--ideal", "z"),
            *(pytest.param(argv, id=name) for name, argv in README_COMMANDS.items()),
            # the budgeted commands of the step-budget tests below; a
            # (file, steps) entry runs on `budgeted(tmp_path, file, steps)`
            pytest.param(("hcore", (WEYL, 1), "-g", "a + X^2"), id="hcore_weyl_steps1"),
            pytest.param(("hprimes", (M2, 1)), id="hprimes_m2_steps1"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, tmp_path, argv):
        # the first run builds the presentation, the second reuses it
        argv = [budgeted(tmp_path, *a) if isinstance(a, tuple) else a for a in argv]
        cli._load_text.cache_clear()
        assert run(capsys, *argv) == run(capsys, *argv)


class TestLoadKeepsThePresentation:
    def test_one_text_gives_one_presentation(self, tmp_path):
        copy = tmp_path / "m2.json"
        copy.write_text(Path(M2).read_text())
        pres, _ = load_presentation(M2)
        assert load_presentation(M2)[0] is pres
        assert load_presentation(str(copy))[0] is pres

    def test_rewritten_file_is_read_afresh(self, capsys, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(Path(WEYL).read_text())
        assert load_presentation(str(path))[0] is load_presentation(WEYL)[0]
        path.write_text(Path(PPLANE).read_text())
        assert load_presentation(str(path))[0] is load_presentation(PPLANE)[0]
        assert run(capsys, "center", str(path)) == run(capsys, "center", PPLANE)

    def test_each_load_returns_fresh_bounds(self, tmp_path):
        path = budgeted(tmp_path, WEYL, 5)
        bounds = load_presentation(path)[1]
        bounds["groebner_steps"] = 1
        again = load_presentation(path)[1]
        assert again == {"groebner_steps": 5} and again is not bounds


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

    tight = budgeted(tmp_path, WEYL, 1)
    load_presentation_data(json.loads(Path(tight).read_text()))
    assert basis_size() == 3
    # main runs the command in a `with step_limit(1):` block
    code, out, err = run(capsys, "hcore", tight, "-g", "a + X^2")
    assert code == 1 and not out and "budget of 1 exceeded" in err
    assert basis_size() == 3


def test_budget_overrun_is_one_error_line(capsys, tmp_path):
    code, out, err = run(capsys, "hcore", budgeted(tmp_path, WEYL, 1), "-g", "a + X^2")
    assert (code, out, err) == (1, "", "error: Groebner step budget of 1 exceeded\n")


def test_hprimes_out_of_budget_is_inconclusive(capsys, tmp_path):
    # a step budget that runs out gives a flagged tree, not an error
    code, out, err = run(capsys, "hprimes", budgeted(tmp_path, M2, 1))
    assert code == 0 and not err
    tree = json.loads(out)
    assert tree["inconclusive"] is True and 0 < tree["count"] < 14


def command_mix(rng, count):
    """`count` seeded commands: chain, hcore, closure and center on the
    fixtures, and check, hprimes, d and theta on m2."""
    paths = (WEYL, PPLANE, M2, BELLSIG)
    names = {path: load_presentation(path)[0].ctx.names for path in paths}

    def element(path):
        u, v, w, x = (rng.choice(names[path]) for _ in range(4))
        c = rng.randint(1, 3)
        return rng.choice((u, f"{u} + {c}*{v}", f"{u}*{v} - {c}*{w}^2", f"{u}*{v} - {w}*{x}"))

    def draw(kind):
        path = rng.choice(paths)
        if kind == "chain":
            # 0, two drawn elements, then one more variable per entry
            gens = [element(path), element(path)]
            order = rng.sample(names[path], len(names[path]))
            argv = ["chain", path, "--ideal", "0"]
            for k in range(rng.randint(1, len(order))):
                argv += ["--ideal", ";".join(gens + order[:k])]
            return argv
        if kind in ("hcore", "closure"):
            argv = [kind, path]
            for _ in range(rng.randint(1, 2)):
                argv += ["-g", element(path)]
            return argv
        if kind == "center":
            return ["center", path]
        if kind == "d":
            level = rng.randint(2, 4)
            modulo = rng.choice(([], ["--modulo", "b;c"]))
            return ["d", M2, "--level", str(level), *(modulo if level == 4 else [])]
        if kind == "theta":
            level = rng.randint(2, 4)
            return ["theta", M2, "--level", str(level), rng.choice("abc"[: level - 1])]
        return [kind, M2]

    kinds = ("chain", "hcore", "closure", "center", "check", "hprimes", "d", "theta")
    # the fixture commands twice as often as those on m2 alone
    return [draw(rng.choice(kinds[:4] * 2 + kinds[4:])) for _ in range(count)]


def test_step_counts_do_not_depend_on_earlier_commands(capsys, monkeypatch):
    # each command takes as many Groebner steps, with the same output, on a
    # presentation built for it as on one that earlier commands have used
    ticks = [0]
    tick = ideals._Budget.tick

    def counted(self):
        ticks[0] += 1
        return tick(self)

    monkeypatch.setattr(ideals._Budget, "tick", counted)

    def steps(argv, cold):
        if cold:
            cli._load_text.cache_clear()
        ticks[0] = 0
        return run(capsys, *argv), ticks[0]

    mix = command_mix(random.Random(7), 60)
    cold = [steps(argv, cold=True) for argv in mix]
    assert sum(n for _, n in cold) > 0
    # in the second warm pass every command runs on a presentation that the
    # whole mix has used before
    for _ in range(2):
        assert [steps(argv, cold=False) for argv in mix] == cold


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


@pytest.mark.parametrize("where", ["top", "brackets"])
def test_json_nested_too_deeply(capsys, tmp_path, where):
    # 100,000 levels of JSON arrays reach the decoder's recursion limit
    deep = "[" * 100_000 + "]" * 100_000
    text = deep if where == "top" else '{"vars": ["a", "X"], "brackets": %s}' % deep
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", "error: malformed JSON: nested too deeply\n")


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_golden_stdout(capsys, name):
    code, out, _ = run(capsys, *README_COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


# `pcgl check` on every fixture, with its exit code: bellsig fails at level
# 4, whose bound overruns give its likely_not_nilpotent list and notes.
# tests/golden/cli/check_<fixture>.out holds each one's stdout.
CHECK_EXIT_CODES = {"weyl": 0, "pplane": 0, "bellsig": 1, "m2": 0}


@pytest.mark.parametrize("fixture", sorted(CHECK_EXIT_CODES))
def test_check_golden_stdout(capsys, fixture):
    code, out, _ = run(capsys, "check", fixture_path(fixture))
    assert code == CHECK_EXIT_CODES[fixture]
    assert out == (GOLDEN / f"check_{fixture}.out").read_text()


README = Path(__file__).parent.parent / "README.md"


def library_example(readme):
    """The fenced python block under the README's `## Library` heading, and
    the value commented on each of its prints (`print(x)  # value`)."""
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    return code, [line.rsplit("#", 1)[1].strip() for line in prints]


def run_library_example(code):
    """The lines that the example prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    return out.getvalue().splitlines()


def test_readme_library_example():
    code, values = library_example(README.read_text())
    assert values == ["True", "a - X^-1", "2"]
    assert run_library_example(code) == values


def run_under_locale(locale, *argv):
    """(exit code, stdout, stderr) of the pcgl command in a fresh interpreter
    under the locale, with Python's UTF-8 mode and locale coercion off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
    env.update(
        LC_ALL=locale,
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
        PYTHONPATH=str(Path(__file__).parent.parent / "src"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "pcgl.cli", *argv], env=env, capture_output=True
    )
    return done.returncode, done.stdout, done.stderr


def test_files_load_and_print_alike_under_every_locale(tmp_path):
    # a UTF-8 file whose only non-ASCII text is an unknown key is read as
    # UTF-8, not in the locale's encoding, and refused for that key, spelled
    # in ASCII; a variable name outside ASCII, here escaped in an ASCII
    # file, is refused with one error line instead of failing to print
    weyl = json.loads(Path(WEYL).read_text())
    note = tmp_path / "note.json"
    note.write_bytes(json.dumps({**weyl, "caf\u00e9": "note"}, ensure_ascii=False).encode())
    name = tmp_path / "name.json"
    name.write_text(
        json.dumps({**weyl, "vars": ["a\u00e9", "X"], "brackets": {"2,1": "-a\u00e9*X + 1"}})
    )
    want = (GOLDEN / "check_weyl.out").read_bytes()
    refused = (
        b"error: unknown key caf\\xe9; expected one of"
        b" field, vars, laurent, brackets, grading, h, bounds\n"
    )
    for locale in ("C", "C.UTF-8"):
        assert run_under_locale(locale, "check", WEYL) == (0, want, b"")
        assert run_under_locale(locale, "check", str(note)) == (2, b"", refused)
        code, out, err = run_under_locale(locale, "hprimes", str(name), "--format", "dot")
        assert (code, out) == (2, b"")
        assert err == b"error: invalid variable name 'a\\xe9'\n"
