"""Malformed presentation files: exit code 2 with one error line, never a
traceback.

A valid Weyl-algebra presentation has one field, or one entry inside a
field, replaced by an arbitrary JSON value.  `pcgl check` must then either
accept the file (exit 0, or 1 with the negative verdict as its JSON report)
or refuse it with exit code 2 and a single `error:` line on stderr.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgl.cli import SchemaError, load_presentation_data, main

BASE = {
    "field": "QQ",
    "vars": ["a", "X"],
    "laurent": [False, False],
    "brackets": {"2,1": "-a*X + 1"},
    "grading": [[-1, 1]],
    "h": [["1"], ["1"]],
    "bounds": {"nilpotency": 25, "groebner_steps": 100000},
}

# Where a random value goes: a top-level field or an entry inside one.
# ("bracket",) and ("bounds", "degree") are unknown keys, so every value
# there is refused.
PATHS = [
    ("field",), ("vars",), ("vars", 0), ("laurent",), ("laurent", 1),
    ("brackets",), ("brackets", "2,1"), ("brackets", "2, 1"), ("bracket",),
    ("grading",), ("grading", 0), ("grading", 0, 1), ("h",), ("h", 0), ("h", 1, 0),
    ("bounds",), ("bounds", "nilpotency"), ("bounds", "degree"),
    ("bounds", "groebner_steps"),
]

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(alphabet="aX01-+*^/ ,.e", max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="aX12,", max_size=3), inner, max_size=3),
    max_leaves=6,
)


def run_check(tmp_path, data):
    return run_check_text(tmp_path, json.dumps(data))


def run_check_text(tmp_path, text):
    """Exit code, stdout and stderr of `pcgl check` on a file of the text."""
    path = tmp_path / "pres.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_base_is_valid(tmp_path):
    assert run_check(tmp_path, BASE) == (0, run_check(tmp_path, BASE)[1], "")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("schema")


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(PATHS), value=JSON)
def test_fuzzed_field(scratch, path, value):
    data = copy.deepcopy(BASE)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, out, err = run_check(scratch, data)
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert code in (0, 1) and err == "", (code, err)
        assert json.loads(out)["ok"] is (code == 0)


@pytest.mark.parametrize(
    "path, value",
    [
        (("vars",), 5),
        (("vars", 0), 3),
        (("grading", 0, 1), "1"),
        (("grading", 0, 1), 1.5),
        (("grading", 0), 7),
        (("brackets", "2,1"), 2),
        (("brackets",), []),
        (("h", 0, 0), "x"),
        (("bounds", "nilpotency"), "25"),
        (("laurent",), [False]),
        (("vars", 1), "a"),
        (("bounds", "groebner_step"), 1000),
        (("bounds", "degree"), 4),
        (("laurent",), []),
    ],
)
def test_schema_errors(path, value):
    data = copy.deepcopy(BASE)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SchemaError):
        load_presentation_data(data)


def test_unknown_top_level_key(tmp_path):
    # a misspelled "brackets" would leave a commuting algebra, whose center
    # is the whole ring; the file is refused instead
    data = {"vars": ["a", "b"], "bracket": {"2,1": "a*b"}, "grading": [[1, 0], [0, 1]]}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["center", str(path)])
    message = (
        "unknown key bracket; expected one of field, vars, laurent, brackets, grading, h, bounds"
    )
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")
    with pytest.raises(SchemaError) as exc:
        load_presentation_data(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("second", ["02,1", " 2,1", "2,01"])
def test_repeated_bracket_key(tmp_path, second):
    # two keys naming one pair: the later one must not replace the earlier
    data = {
        "vars": ["a", "X"],
        "brackets": {"2,1": "X*a", second: "2*X*a"},
        "grading": [[1, 0], [0, 1]],
    }
    with pytest.raises(SchemaError, match=repr(second)):
        load_presentation_data(data)
    code, out, err = run_check(tmp_path, data)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and repr(second) in err


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"vars": ["a", "X"], "brackets": {"2,1": "X*a", "2,1": "2*X*a"},'
         ' "grading": [[1, 0], [0, 1]]}', "2,1"),
        ('{"vars": ["a", "X"], "vars": ["b", "Y"], "brackets": {"2,1": "Y*b"},'
         ' "grading": [[1, 0], [0, 1]]}', "vars"),
    ],
    ids=["bracket", "vars"],
)
def test_repeated_key_in_the_file_text(tmp_path, text, key):
    # `json` alone keeps the later of two equal keys, and the file with only
    # that value is valid; the file is refused before either value can
    # replace the other
    assert run_check_text(tmp_path, text) == (2, "", f"error: repeated key {key!r}\n")
