"""Value semantics of the immutable records, as the frozen dataclasses they
replace had them: `==` over their fields in order, a hash equal to the hash
of the tuple of those fields, so that set and dict orders stay as they
were, no assignment, and pickling to a copy equal to its original, the
bracket tables and derivations in it compared by value too.  And the
verdicts of the reports, which are read off their witnesses rather than
stored next to them."""

import pickle

import pytest

from pcgl.cauchon import DElement, enumerate_hprimes, separating_normal
from pcgl.cgl import LevelData, LevelReport, PoissonPresentation, level_data, verify_cgl
from pcgl.grading import GradingData
from pcgl.pbracket import (
    BracketTable,
    JacobiReport,
    NormalityCertificate,
    check_jacobi,
    generator_brackets,
)
from pcgl.qpoly import Derivation, VarTable, parse, re_context
from pcgl.strata import LogBracketMatrix
from records import VALUE_RECORDS, fields, plain, rebuild
from test_matrices import MEMO_KINDS, cache_kinds, matrix_presentation, nested_pairs

CTX = VarTable(("x", "y"))


def example(cls, weyl):
    """A record of the class, and a change of one field that makes it differ."""
    L = level_data(weyl, 2)
    return {
        VarTable: (CTX, {"laurent": (True, False)}),
        GradingData: (GradingData(1, ((1,), (-1,))), {"weights": ((1,), (1,))}),
        PoissonPresentation: (weyl, {"nilpotency_bound": 6}),
        LevelData: (L, {"lambda_k": 2 * L.lambda_k}),
        DElement: (DElement(parse("x", CTX), parse("y", CTX)), {"denominator": parse("1", CTX)}),
        LogBracketMatrix: (
            LogBracketMatrix(CTX, ((0, 1), (-1, 0))),
            {"entries": ((0, 2), (-2, 0))},
        ),
    }[cls]


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_value_semantics(weyl, cls):
    record, change = example(cls, weyl)
    values = tuple(getattr(record, name) for name in fields(record))
    copy = rebuild(record)
    assert copy is not record and copy == record and record != rebuild(record, **change)
    assert record != values
    assert hash(copy) == hash(record) == hash(values)
    # the copy of a pickle round trip equals its original, field by field
    # too, and is immutable
    thawed = pickle.loads(pickle.dumps(record))
    assert type(thawed) is cls and plain(thawed) == plain(record)
    assert thawed == record and hash(thawed) == hash(record)
    for r in (record, thawed):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(r, fields(r)[0], values[0])


def test_pickled_level_record_equals_its_original():
    # its presentations hold bracket tables and its sigma and delta are
    # derivations: all three compare and hash by value
    L = level_data(matrix_presentation(2, 3), 6)
    thawed = pickle.loads(pickle.dumps(L))
    assert thawed == L and hash(thawed) == hash(L)
    table, sigma = L.pres_R.table, L.sigma
    assert BracketTable(table.ctx, dict(table.pairs())) == table
    assert Derivation(sigma.ctx, sigma.images) == sigma
    assert hash(Derivation(sigma.ctx, sigma.images)) == hash(sigma)
    assert L.delta != sigma and L.pres_A.table != table


def test_table_derivation_and_certificate_are_values(weyl):
    x = parse("x", CTX)
    table, delta = weyl.table, level_data(weyl, 2).delta
    certificate = NormalityCertificate(quotients={0: x}, failures={1: x})
    for record in (table, delta, certificate):
        thawed = pickle.loads(pickle.dumps(record))
        assert thawed is not record and type(thawed) is type(record) and thawed == record
        for r in (record, thawed):
            for name in ("ctx", "images", "quotients", "_rows"):
                with pytest.raises(AttributeError, match=f"^{type(r).__name__} is immutable$"):
                    setattr(r, name, None)
    # the hashes of the hand-written methods they replace, so that no set
    # order or digest moves
    assert hash(delta) == hash((delta.ctx, frozenset(delta.images.items())))
    assert hash(table) == hash((table.ctx, table.pairs()))
    with pytest.raises(TypeError, match="unhashable"):
        hash(certificate)
    assert certificate != NormalityCertificate(quotients=certificate.quotients)


def test_presentation_cache_is_not_part_of_the_value(weyl):
    P = rebuild(weyl)
    level_data(P, 2)
    Q = rebuild(P)
    assert P._cache and not Q._cache
    assert P == Q and hash(P) == hash(Q)
    assert "_cache" not in fields(P)


def test_a_warm_memo_is_not_part_of_the_value(weyl):
    # a bracket table that has swept an element, a variable table that a
    # polynomial was moved to, and a presentation whose cache holds level
    # records, the verdict of `verify_cgl` and every separation kind, equal
    # a cold copy, hash like it and pickle as it does, to a copy whose memo
    # is empty
    L = level_data(weyl, 2)
    ctx, f = L.pres_R.ctx, parse("a*X + X^2", L.pres_R.ctx)
    table, moved_to = L.pres_R.table, ctx.extend(("t",))
    generator_brackets(table, f, (1,))
    re_context(f, moved_to)
    P = matrix_presentation(2, 3)
    leaves = enumerate_hprimes(P).leaves()
    small = next(node for node in leaves if node.label() == "<x12*x21 - x11*x22>")
    separating_normal(P, small, next(b for a, b in nested_pairs(leaves) if a is small))
    assert cache_kinds(P) == MEMO_KINDS | {"level", "cgl"}
    for warm, cold, memo in [
        (table, BracketTable(table.ctx, dict(table.pairs())), "_sweeps"),
        (moved_to, VarTable(moved_to.names, moved_to.laurent), "_moved"),
        (P, PoissonPresentation(P.ctx, P.table, P.grading, P.h, P.nilpotency_bound), "_cache"),
    ]:
        assert getattr(warm, memo) and not getattr(cold, memo)
        assert warm == cold and cold == warm and hash(warm) == hash(cold)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        thawed = pickle.loads(pickle.dumps(warm))
        assert thawed == warm and not getattr(thawed, memo)


def test_each_verdict_follows_its_failures(m2, bellsig):
    x = parse("x", CTX)
    assert JacobiReport().ok and not JacobiReport(failures=[(2, 1, 0, x)]).ok
    assert NormalityCertificate(quotients={0: x}).ok
    assert not NormalityCertificate(quotients={0: x}, failures={1: x}).ok
    # the changed entry {d, b} of m2 breaks the Jacobi identity
    entries = dict(m2.table.pairs())
    entries[(3, 1)] = parse("-2*b*d", m2.ctx)
    assert check_jacobi(m2.table).ok
    assert not check_jacobi(BracketTable(m2.ctx, entries)).ok
    # bellsig's delta_4 iterates on x_1 outlast its nilpotency bound
    levels = verify_cgl(bellsig).levels
    assert [None in level.nilpotency.values() for level in levels] == [False, False, False, True]
    assert [level.nilpotency_ok for level in levels] == [True, True, True, False]
    assert LevelReport(2, nilpotency={0: 2}).nilpotency_ok
    assert not LevelReport(3, nilpotency={0: 2, 1: None}).nilpotency_ok
