"""Copies and plain forms of pcgl's record classes.

The records are plain classes: their fields are their constructor's
parameters, read back as attributes of the same names.
"""

import inspect

from pcgl.cauchon import DElement
from pcgl.cgl import LevelData, PoissonPresentation
from pcgl.grading import GradingData
from pcgl.pbracket import BracketTable
from pcgl.qpoly import Derivation, VarTable
from pcgl.strata import LogBracketMatrix

# the immutable records, compared and hashed by their fields in order
VALUE_RECORDS = (VarTable, GradingData, PoissonPresentation, LevelData, DElement, LogBracketMatrix)


def fields(record) -> tuple[str, ...]:
    """The field names of a record or record class, in constructor order."""
    cls = record if isinstance(record, type) else type(record)
    return tuple(inspect.signature(cls).parameters)


def rebuild(record, **changes):
    """A copy of `record` with some fields changed, built through its
    constructor, so that every constructor check runs on the copy."""
    values = {name: getattr(record, name) for name in fields(record)}
    return type(record)(**{**values, **changes})


def plain(value):
    """An immutable record, table or derivation as comparable plain data,
    field by field; tables by their pairs() and derivations by their
    images, with polynomials as strings."""
    if isinstance(value, BracketTable):
        return [(key, str(p)) for key, p in value.pairs()]
    if isinstance(value, Derivation):
        return {j: str(p) for j, p in value.images.items()}
    if isinstance(value, VALUE_RECORDS):
        return {name: plain(getattr(value, name)) for name in fields(value)}
    return value
