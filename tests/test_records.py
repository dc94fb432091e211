"""Value semantics of the immutable records, as the frozen dataclasses they
replace had them: `==` over their fields in order, a hash equal to the hash
of the tuple of those fields, so that set and dict orders stay as they
were, no assignment, and pickling."""

import pickle

import pytest

from pcgl.cauchon import DElement
from pcgl.cgl import LevelData, PoissonPresentation, level_data
from pcgl.grading import GradingData
from pcgl.qpoly import VarTable, parse
from pcgl.strata import LogBracketMatrix
from records import VALUE_RECORDS, fields, plain, rebuild

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
    # the copy of a pickle round trip is immutable too; the bracket table
    # and the derivations compare by identity, so it is compared in plain form
    thawed = pickle.loads(pickle.dumps(record))
    assert type(thawed) is cls and plain(thawed) == plain(record)
    for r in (record, thawed):
        with pytest.raises(AttributeError):
            setattr(r, fields(r)[0], values[0])


def test_presentation_cache_is_not_part_of_the_value(weyl):
    P = rebuild(weyl)
    level_data(P, 2)
    Q = rebuild(P)
    assert P._cache and not Q._cache
    assert P == Q and hash(P) == hash(Q)
    assert "_cache" not in fields(P)
