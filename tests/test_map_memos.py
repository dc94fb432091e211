"""The memos of two maps that the tables define: the bracket sweeps of a
`BracketTable` and the polynomials moved to a `VarTable`.  Each entry
equals its map applied afresh, a warm presentation enumerates as a fresh
one does, and each map runs once per distinct input."""

import gc
from collections import Counter

from pcgl import pbracket, qpoly
from pcgl.cauchon import enumerate_hprimes
from pcgl.pbracket import BracketTable, generator_brackets
from pcgl.qpoly import VarTable, _chain_rule, _move, parse
from test_matrices import matrix_presentation, separation_rows


def memos():
    """(table, memo) for every live table with a nonempty memo."""
    for obj in gc.get_objects():
        if isinstance(obj, BracketTable) and obj._sweeps:
            yield obj, obj._sweeps
        elif isinstance(obj, VarTable) and obj._moved:
            yield obj, obj._moved


def recomputed(table, key):
    """The memo entry of `key` on `table`, computed by the map itself."""
    if isinstance(table, BracketTable):
        f, columns = key
        full = _chain_rule(table._rows, f, len(table._rows))
        return full if columns is None else [full[j] for j in columns]
    return _move(key, table)


def test_every_memo_entry_equals_its_map():
    # a 2x3 and a 3x3 enumeration, then a 2x3 separation sweep, fill both
    # memos; every entry alive then equals its map run afresh, over the
    # table itself for a moved polynomial
    P = matrix_presentation(2, 3)
    fresh = enumerate_hprimes(P).to_json_dict()
    enumerate_hprimes(matrix_presentation(3, 3))
    assert len(separation_rows(matrix_presentation(2, 3))) == 447
    entries = Counter()
    for table, memo in memos():
        for key, value in memo.items():
            assert value == recomputed(table, key)
            if isinstance(table, VarTable):
                assert value.ctx is table
        entries[type(table)] += len(memo)
    assert set(entries) == {BracketTable, VarTable}
    # the second enumeration on the warm presentation gives the tree of
    # the first, on the presentation fresh
    assert enumerate_hprimes(P).to_json_dict() == fresh


def test_each_map_runs_once_per_input(monkeypatch):
    # every bracket sweep of a 2x3 enumeration has rows and a polynomial
    # that no earlier sweep had: rows held by the table that cut them, or
    # built for one `bracket` call.  Every move takes a polynomial to a
    # table for the first time.  A map that runs past its memo runs more
    # often than this.
    kept, sweeps, moves = [], [], []

    def sweep(rows, f, width):
        kept.append(rows)  # alive, so that no other rows take its id
        sweeps.append((id(rows), f, width))
        return _chain_rule(rows, f, width)

    def move(f, ctx, _move=qpoly._move):
        kept.append(ctx)
        moves.append((id(ctx), f))
        return _move(f, ctx)

    monkeypatch.setattr(pbracket, "_chain_rule", sweep)
    monkeypatch.setattr(qpoly, "_move", move)
    assert len(enumerate_hprimes(matrix_presentation(2, 3)).leaves()) == 46
    assert len(sweeps) == len(set(sweeps)) == 91
    assert len(moves) == len(set(moves)) == 99


def test_each_sweep_returns_a_list_of_its_own(weyl):
    # a caller may change the list it got; the table's memo stays as it was
    f = parse("a*X + X^2", weyl.ctx)
    cold = generator_brackets(BracketTable(weyl.ctx, dict(weyl.table.pairs())), f)
    generator_brackets(weyl.table, f).clear()
    assert generator_brackets(weyl.table, f) == cold != []
