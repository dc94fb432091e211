"""Public refusals that no other test reaches: each input below is refused
with this exception class and exactly this message."""

import pytest

from pcgl.errors import ContextMismatch, PcglError
from pcgl.grading import GradingData, solve_h
from pcgl.pbracket import BracketTable
from pcgl.qpoly import VarTable, parse
from pcgl.strata import LogBracketMatrix

AB = VarTable(("a", "b"))
G = GradingData(1, ((1,), (2,)))

REFUSALS = {
    "bracket key i = j": (
        lambda: BracketTable(AB, {(1, 1): parse("a", AB)}),
        PcglError, "bracket table keys must have i > j, got (1, 1)",
    ),
    "bracket key i < j": (
        lambda: BracketTable(AB, {(0, 1): parse("a", AB)}),
        PcglError, "bracket table keys must have i > j, got (0, 1)",
    ),
    "bracket entry over another table": (
        lambda: BracketTable(AB, {(1, 0): parse("a", VarTable(("a", "c")))}),
        ContextMismatch, "bracket entry over wrong variable table",
    ),
    "log matrix not square": (
        lambda: LogBracketMatrix(AB, ((0, 1), (-1, 0, 0))),
        PcglError, "log-bracket matrix must be square",
    ),
    "log matrix with a diagonal": (
        lambda: LogBracketMatrix(AB, ((0, 1), (-1, 2))),
        PcglError, "log-bracket matrix must have zero diagonal",
    ),
    "log matrix not skew": (
        lambda: LogBracketMatrix(AB, ((0, 1), (1, 0))),
        PcglError, "log-bracket matrix must be skew-symmetric",
    ),
    "weight of the wrong length": (
        lambda: GradingData(1, ((1,), (1, 0))),
        PcglError, "weight vector length does not match grading rank",
    ),
    "level 0": (
        lambda: solve_h(G, 0, ()),
        PcglError, "level out of range",
    ),
    "level past the last generator": (
        lambda: solve_h(G, 3, (1, 1)),
        PcglError, "level out of range",
    ),
    "one eigenvalue too many": (
        lambda: solve_h(G, 2, (1, 1)),
        PcglError, "expected one sigma eigenvalue per earlier generator",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused(case):
    call, kind, message = REFUSALS[case]
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == message
