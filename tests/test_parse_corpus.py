"""The parser against a seeded corpus of strings pinned in a golden file.

`tests/golden/parse_corpus.json` holds, for each string of the corpus,
the printed polynomial `parse` returns or the class, text and position of
the error it raises.  The strings come from a seeded generator: 2,000 over
the characters "xyzw123+-*^()/ ." on the four-variable table of
`tests/test_poly.py` and 1,000 over "aX12+-*^()/ " on its Laurent table.
Half of each set are uniform character strings, which mostly fail, and
half are random well-formed expressions, a third of them with one
character edited.  A string with an exponent of more than two digits is
redrawn, so that no string asks for a huge power.

Regenerate the golden file only on purpose, with
`PYTHONPATH=src python tests/test_parse_corpus.py`.
"""

import json
import random
import re
from pathlib import Path

import pytest

from pcgl.errors import ParseError
from pcgl.qpoly import VarTable, parse

CTX = VarTable(("x", "y", "z", "w"))
LCTX = VarTable(("a", "X"), (False, True))
GOLDEN = Path(__file__).parent / "golden" / "parse_corpus.json"

# (name, table, characters, variable names, digits, seed, count)
CORPORA = (
    ("poly", CTX, "xyzw123+-*^()/ .", "xyzw", "123", 3501, 2000),
    ("laurent", LCTX, "aX12+-*^()/ ", "aX", "12", 3502, 1000),
)

_BIG_EXPONENT = re.compile(r"\^\s*[-+]?\s*\d{3}")


def _expression(rng, names, digits, depth):
    """A random well-formed expression: a sum of products of signed
    powers of names, integers, rational literals and parenthesized sums."""
    def number():
        return "".join(rng.choice(digits) for _ in range(rng.randint(1, 2)))

    def space():
        return rng.choice(["", "", "", " "])

    def factor():
        sign = rng.choice(["", "", "", "-", "+", "--"])
        r = rng.random()
        if r < 0.45:
            atom = rng.choice(names)
        elif r < 0.65:
            atom = number()
        elif r < 0.8:
            atom = f"{number()}{space()}/{space()}{number()}"
        elif depth > 0:
            atom = f"({_expression(rng, names, digits, depth - 1)})"
        else:
            atom = rng.choice(names)
        if rng.random() < 0.3:
            exp_sign = rng.choice(["", "", "", "", "-", "+"])
            atom += f"{space()}^{space()}{exp_sign}{space()}{rng.choice(digits)}"
        return sign + atom

    def product():
        return rng.choice(["*", " * ", "*"]).join(factor() for _ in range(rng.randint(1, 3)))

    out = product()
    for _ in range(rng.randint(0, 3)):
        out += rng.choice(["+", "-", " + ", " - "]) + product()
    return out


def corpus_strings(characters, names, digits, seed, count):
    """Even entries are uniform character strings of length 1 to 12; odd
    ones are well-formed expressions, every third of them with one
    character replaced, inserted or deleted."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            text = _expression(rng, names, digits, 2)
            if len(out) % 3 == 0:
                k = rng.randrange(len(text) + 1)
                edit = rng.choice(["replace", "insert", "delete"])
                c = rng.choice(characters)
                if edit == "replace":
                    text = text[:k] + c + text[k + 1:]
                elif edit == "insert":
                    text = text[:k] + c + text[k:]
                else:
                    text = text[:k] + text[k + 1:]
        else:
            text = "".join(rng.choice(characters) for _ in range(rng.randint(1, 12)))
        if text and not _BIG_EXPONENT.search(text):
            out.append(text)
    return out


def outcome(text, ctx):
    """["poly", printed polynomial] or ["error", class, text, position]."""
    try:
        return ["poly", str(parse(text, ctx))]
    except ParseError as e:
        return ["error", type(e).__name__, str(e), e.position]


def corpus():
    return {
        name: [[text, outcome(text, ctx)] for text in corpus_strings(*args)]
        for name, ctx, *args in CORPORA
    }


@pytest.mark.parametrize("name", [c[0] for c in CORPORA])
def test_parser_reproduces_the_corpus(name):
    golden = json.loads(GOLDEN.read_text())[name]
    _, ctx, *args = next(c for c in CORPORA if c[0] == name)
    assert [text for text, _ in golden] == corpus_strings(*args)
    mismatches = [(text, want, got) for text, want in golden if (got := outcome(text, ctx)) != want]
    assert not mismatches, mismatches[:5]


def test_corpus_covers_both_outcomes():
    golden = json.loads(GOLDEN.read_text())
    for rows in golden.values():
        kinds = {o[0] if o[0] == "poly" else o[1] for _, o in rows}
        assert {"poly", "ParseError", "UnknownVariable"} <= kinds
    assert any(o[1] == "NegativeExponent" for _, o in golden["laurent"] if o[0] == "error")


if __name__ == "__main__":
    # one string and its outcome per line
    blocks = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for name, rows in corpus().items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
