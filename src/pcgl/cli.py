"""Command-line front end.

Loads presentation files (JSON), orchestrates the other modules and emits
machine-readable output.  Exit codes: 0 success, 1 mathematical failure or
negative verdict, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction
from importlib import resources

from .cauchon import d_element_search, enumerate_hprimes, normal_element, theta
from .cgl import DEFAULT_NILPOTENCY_BOUND, PoissonPresentation, level_data, verify_cgl
from .errors import ParseError, PcglError, TriangularityError
from .grading import GradingData
from .ideals import Ideal, chain_report, h_core, poisson_closure, step_limit
from .pbracket import BracketTable
from .qpoly import Polynomial, VarTable, parse
from .strata import extract_log_matrix, poisson_center_torus


class SchemaError(PcglError):
    """Presentation file violates the input schema."""


class UsageError(PcglError):
    """A command-line option is out of range."""


def fixture_path(name: str) -> str:
    """Path of a packaged fixture presentation, e.g. fixture_path('weyl')."""
    return str(resources.files("pcgl").joinpath(f"fixtures/{name}.json"))


_JSON_KINDS = {list: "a list", dict: "an object", str: "a string", int: "an integer",
               bool: "true or false"}


def _expect(value, kind, what: str):
    """`value` if it is of the JSON kind `kind` (a key of _JSON_KINDS), else
    a SchemaError naming `what`; booleans are not integers here."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{what} must be {_JSON_KINDS[kind]}")
    return value


def _rational(value, what: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{what} must be a rational number, not {value!r}") from None


def load_presentation_data(data: dict) -> tuple[PoissonPresentation, dict]:
    """The presentation and the `bounds` of a parsed presentation file.

    Every malformed field and every unknown key, at the top level or in
    `bounds`, raises SchemaError (exit code 2 on the command line); a
    bracket entry of the wrong Ore shape raises TriangularityError.
    """
    fields = ("field", "vars", "laurent", "brackets", "grading", "h", "bounds")
    known = ("nilpotency", "groebner_steps")
    bounds = dict(_expect(data.get("bounds", {}), dict, "'bounds'"))
    for where, obj, keys in (("", data, fields), ("bounds.", bounds, known)):
        for name in obj:
            if name not in keys:
                name = ascii(name)[1:-1]  # as the file spells it, in ASCII
                raise SchemaError(f"unknown key {where}{name}; expected one of {', '.join(keys)}")
    if data.get("field", "QQ") != "QQ":
        raise SchemaError("only field QQ is supported")
    if "vars" not in data:
        raise SchemaError("missing 'vars'")
    names = tuple(_expect(x, str, "each variable") for x in _expect(data["vars"], list, "'vars'"))
    laurent = tuple(
        _expect(x, bool, "each 'laurent' flag")
        for x in _expect(data.get("laurent", [False] * len(names)), list, "'laurent'")
    )
    try:
        ctx = VarTable(names, laurent)
    except PcglError as exc:
        raise SchemaError(str(exc)) from None
    n = len(ctx)
    entries = {}
    for key, text in _expect(data.get("brackets", {}), dict, "'brackets'").items():
        try:
            i_s, j_s = key.split(",")
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise SchemaError(f"bad bracket key {key!r}; expected 'i,j'") from None
        if not (1 <= j < i <= n):
            raise SchemaError(f"bracket key {key!r} out of range (need i > j, 1-based)")
        if (i - 1, j - 1) in entries:
            raise SchemaError(f"bracket key {key!r} repeats the pair {i},{j}")
        entries[(i - 1, j - 1)] = parse(_expect(text, str, f"bracket {key!r}"), ctx)
    rows = _expect(data.get("grading", []), list, "'grading'")
    for row in rows:
        if len(_expect(row, list, "each grading row")) != n:
            raise SchemaError("grading rows must have one entry per generator")
        for x in row:
            _expect(x, int, "each grading entry")
    weights = tuple(tuple(row[i] for row in rows) for i in range(n))
    grading = GradingData(len(rows), weights)
    h = None
    if data.get("h") is not None:
        h = tuple(
            tuple(_rational(x, "each 'h' entry") for x in _expect(vec, list, "each 'h' vector"))
            for vec in _expect(data["h"], list, "'h'")
        )
    for name in known:
        if name in bounds and _expect(bounds[name], int, f"bounds.{name}") < 1:
            raise SchemaError(f"bounds.{name} must be positive")
    try:
        pres = PoissonPresentation(
            ctx=ctx,
            table=BracketTable(ctx, entries),
            grading=grading,
            h=h,
            nilpotency_bound=bounds.get("nilpotency", DEFAULT_NILPOTENCY_BOUND),
        )
    except TriangularityError:
        raise
    except PcglError as exc:
        raise SchemaError(str(exc)) from None
    return pres, bounds


def _level_data(pres: PoissonPresentation, level: int):
    """The level's Ore data; a level outside 1..N is a SchemaError."""
    if not 1 <= level <= pres.nvars:
        raise SchemaError(f"level {level} out of range 1..{pres.nvars}")
    return level_data(pres, level)


def load_presentation(path: str) -> tuple[PoissonPresentation, dict]:
    """The presentation and the `bounds` of a presentation file.  The file
    is read on every call, and the bounds are a new dict each time.

    Loads of the same file text share one presentation, built once and
    kept for the most recently loaded texts (`functools.lru_cache`'s default
    size); a load that fails keeps nothing.  Sharing is sound by the rule
    of `qpoly._memo`, which every memo of a presentation and its tables
    follows.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"malformed JSON: {exc}") from None
    pres, bounds = _load_text(text)
    return pres, dict(bounds)


def _unique_keys(pairs) -> dict:
    """A JSON object from its (key, value) pairs; a repeated key, which
    `json` would let the later value replace, is a SchemaError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"repeated key {key!r}")
        obj[key] = value
    return obj


@functools.lru_cache
def _load_text(text: str) -> tuple[PoissonPresentation, dict]:
    """The checked presentation and bounds of a file text, kept per text."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("malformed JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise SchemaError("presentation file must be a JSON object")
    return load_presentation_data(data)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _parse_gens(texts, ctx) -> list[Polynomial]:
    return [parse(t, ctx) for t in texts]


def cmd_check(args, pres) -> int:
    report = verify_cgl(pres)
    _emit(report.to_json_dict())
    return 0 if report.ok else 1


def cmd_theta(args, pres) -> int:
    L = _level_data(pres, args.level)
    a = parse(args.expr, L.pres_A.ctx)
    print(theta(L, a))
    return 0


def cmd_normal(args, pres) -> int:
    L = _level_data(pres, args.level)
    a = parse(args.expr, L.pres_A.ctx)
    result = normal_element(L, a)
    print(result.element)
    print("poisson-normal: verified")
    print(f"identity {{x, x_{args.level}}} = -eta*x*x_{args.level}: verified (eta = {result.eta})")
    return 0


def cmd_d(args, pres) -> int:
    L = _level_data(pres, args.level)
    modulo = None
    if args.modulo:
        modulo = Ideal(L.pres_A.ctx, _parse_gens(args.modulo.split(";"), L.pres_A.ctx))
        if not modulo.is_proper():
            raise UsageError("--modulo must generate a proper ideal")
    d = d_element_search(L, modulo=modulo)
    if d is None:
        print("no d-element found (inconclusive)", file=sys.stderr)
        return 1
    print(d)
    print("sigma(d) = lambda*d: verified")
    print("delta(d) = -lambda*d^2: verified")
    return 0


def cmd_hprimes(args, pres) -> int:
    tree = enumerate_hprimes(pres)
    if args.format == "dot":
        sys.stdout.write(tree.to_dot())
    else:
        _emit(tree.to_json_dict())
    return 0


def cmd_closure(args, pres) -> int:
    I = Ideal(pres.ctx, _parse_gens(args.gen, pres.ctx))
    result = poisson_closure(pres.table, I)
    _emit({"generators": result.generator_strings()})
    return 0


def cmd_hcore(args, pres) -> int:
    I = Ideal(pres.ctx, _parse_gens(args.gen, pres.ctx))
    result = h_core(pres.grading, I)
    _emit({"generators": result.generator_strings()})
    return 0


def cmd_chain(args, pres) -> int:
    chain = [
        Ideal(pres.ctx, _parse_gens(spec.split(";"), pres.ctx)) for spec in args.ideal
    ]
    report = chain_report(pres, chain)
    _emit(report.to_json_dict())
    return 0


def cmd_center(args, pres) -> int:
    M = extract_log_matrix(pres)
    _emit(poisson_center_torus(M).to_json_dict())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every `main` call reuses it."""
    p = argparse.ArgumentParser(
        prog="pcgl",
        description="Exact computations on Poisson polynomial algebras with torus actions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="verify the tower axioms")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("theta", help="apply the Cauchon map at a level")
    sp.add_argument("file")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("normal", help="build a Poisson-normal element theta(a) x^s")
    sp.add_argument("file")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_normal)

    sp = sub.add_parser("d", help="search the d-element of the generic fiber")
    sp.add_argument("file")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--modulo", help="semicolon-separated generators of the base ideal")
    sp.set_defaults(func=cmd_d)

    sp = sub.add_parser("hprimes", help="enumerate torus-stable Poisson primes")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp.set_defaults(func=cmd_hprimes)

    sp = sub.add_parser("closure", help="smallest Poisson ideal containing the input")
    sp.add_argument("file")
    sp.add_argument("-g", dest="gen", action="append", required=True)
    sp.set_defaults(func=cmd_closure)

    sp = sub.add_parser("hcore", help="largest torus-stable ideal inside the input")
    sp.add_argument("file")
    sp.add_argument("-g", dest="gen", action="append", required=True)
    sp.set_defaults(func=cmd_hcore)

    sp = sub.add_parser("chain", help="analyze a chain of Poisson ideals")
    sp.add_argument("file")
    sp.add_argument(
        "--ideal",
        action="append",
        required=True,
        help="semicolon-separated generators; use '0' for the zero ideal",
    )
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("center", help="Poisson center of the associated torus")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_center)

    return p


def main(argv=None) -> int:
    """Run one command on its presentation file; the file's
    `bounds.groebner_steps` is the step limit for that command only."""
    args = build_parser().parse_args(argv)
    try:
        pres, bounds = load_presentation(args.file)
        if "groebner_steps" in bounds:
            limit = step_limit(bounds["groebner_steps"])
        else:
            limit = contextlib.nullcontext()
        with limit:
            return args.func(args, pres)
    except (SchemaError, UsageError, ParseError, TriangularityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PcglError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
