"""Exact sparse multivariate Laurent polynomials over the rationals.

A coefficient is a rational held in canonical form: an `int` when it is
integral, and a `fractions.Fraction` with denominator > 1 otherwise.  It
is never zero and never a float; there is no floating point anywhere in
the package.  Values, `==`, `hash` and `str` are those of the rationals
(`hash(3) == hash(Fraction(3))`), so the representation never shows in
an output.  Arithmetic on two ints stays in ints; only a result on the
`Fraction` path is checked for integrality.  Coefficients are divided
by `_qdiv` alone, since `/` on two ints gives a float.

Polynomials are immutable after construction and hashable, so two equal
polynomials always have identical term maps (canonical form).  The
public `Polynomial(ctx, terms)` refuses a negative exponent on a
variable without the Laurent flag, copies its input, brings every
coefficient to canonical form and drops zeros.  Results that are
canonical by construction (sums, products, derivatives, division
results) go through the private `_trusted(ctx, terms)` instead, which
takes ownership of a dict of distinct monomials to nonzero canonical
coefficients without copying it.  The caller builds that dict for the
new polynomial only, and nobody mutates it after the handover; so two
polynomials may share one dict, as `re_context` does between tables that
agree on every variable in use.

A monomial caches its grevlex key and support bitmask, by which the
Groebner engine of `ideals` orders and divides and `str` sorts terms.  The
key is grevlex on Z^n for any n and any exponent sign (`_grevlex_key`), so
one key serves the engine, its elimination blocks and the printing of
Laurent polynomials.

A derivation fixed by its values on the generators is applied by the
chain rule D(f) = sum_i D(x_i) * df/dx_i.  `_chain_rule` is the one
kernel for it: it serves `Derivation.__call__` (sigma_k, delta_k) and
the Poisson brackets of `pbracket`, each handing it rows of generator
images.

A `VarTable` keeps the tables derived from it and each polynomial that
`re_context` moved to it, under the rule of `_memo`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    ContextMismatch,
    MissingImage,
    NegativeExponent,
    ParseError,
    PcglError,
    UnknownVariable,
)

_NAME_RE = re.compile(r"[A-Za-z_]\w*\Z", re.ASCII)


class _Value:
    """An immutable record, compared, hashed and pickled by its fields: by
    default the values of its instance dict, in the order the constructor
    set them.  `hash` is that of the field tuple, so that set and dict
    orders follow the fields alone.  A pickle calls the constructor on the
    fields, so a record whose fields leave out a cache pickles no cache."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self):
        return tuple(vars(self).values())

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return (self.__class__, self._fields())


_MISSING = object()


def _memo(cache: dict, key, compute, *args):
    """cache[key], from compute(*args) on a miss: every memo of a table or
    a presentation, under one rule.  A computation that raises (a step
    budget run out) stores nothing.  The dict is a private attribute of an
    immutable owner, outside its fields, so `==`, `hash` and pickles never
    see it.  A memo that a command can read, on a presentation that
    `cli.load_presentation` shares, holds no Groebner result, so a command's
    steps, budget verdict and output do not depend on earlier ones (the
    separation memos hold such results, but no command reads them)."""
    value = cache.get(key, _MISSING)
    if value is _MISSING:
        value = cache[key] = compute(*args)
    return value


class VarTable(_Value):
    """Ordered variable names with per-variable Laurent flags; immutable,
    compared and hashed by (names, laurent).  The flags default to all
    False; a given flag tuple must have one flag per name."""

    def __init__(self, names: tuple[str, ...], laurent: tuple[bool, ...] | None = None):
        names = tuple(names)
        laurent = (False,) * len(names) if laurent is None else tuple(laurent)
        if len(laurent) != len(names):
            raise PcglError("laurent flag list does not match variable count")
        for name in names:
            if not _NAME_RE.match(name):
                raise PcglError(f"invalid variable name {name!a}")
        if len(set(names)) != len(names):
            raise PcglError("duplicate variable names")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "laurent", laurent)
        object.__setattr__(self, "_pos", {n: i for i, n in enumerate(names)})
        # the tables derived by `restrict` and `extend`, one per argument
        object.__setattr__(self, "_derived", {})
        # `re_context`'s moves to this table, keyed by the polynomial moved
        object.__setattr__(self, "_moved", {})

    def _fields(self):
        return (self.names, self.laurent)

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise PcglError(f"unknown variable {name!r}") from None

    def with_laurent(self, i: int) -> "VarTable":
        flags = list(self.laurent)
        flags[i] = True
        return VarTable(self.names, tuple(flags))

    def restrict(self, k: int) -> "VarTable":
        """The first k variables; the same object on every call, this table
        itself when k is its length."""
        if k == len(self.names):
            return self
        return _memo(self._derived, ("restrict", k), VarTable, self.names[:k], self.laurent[:k])

    def extend(self, extra: tuple[str, ...]) -> "VarTable":
        """This table followed by the polynomial variables `extra`; the
        same object on every call with the same names."""
        extra = tuple(extra)
        flags = self.laurent + (False,) * len(extra)
        return _memo(self._derived, ("extend", extra), VarTable, self.names + extra, flags)


class Monomial:
    """Sparse exponent vector; zero exponents are never stored.

    `exps` is the tuple of (variable index, exponent) pairs in increasing
    index order.  Monomials are immutable and hash their exponents once.
    Two slots are filled on first use: the grevlex key (see the module
    docstring) and the support bitmask; `hash`, `==` and pickling see
    `exps` alone.  `*` and `divides` merge the sorted pairs in one pass;
    `divide`, `lcm` and `gcd` walk them through `_aligned`; `is_coprime`
    compares the masks.
    """

    __slots__ = ("exps", "_hash", "_key", "_mask")

    def __init__(self, exps: tuple[tuple[int, int], ...]):
        _set_exps(self, exps)
        _set_mono_hash(self, hash((exps,)))
        _set_key(self, None)
        _set_mask(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial(exps={self.exps!r})"

    def __reduce__(self):
        return (Monomial, (self.exps,))

    @classmethod
    def make(cls, data) -> "Monomial":
        pairs = data.items() if isinstance(data, dict) else data
        return cls(tuple(sorted((i, e) for i, e in pairs if e != 0)))

    def grevlex(self):
        """The cached grevlex key, `_grevlex_key` of the exponent pairs."""
        k = self._key
        if k is None:
            k = _grevlex_key(self.exps)
            _set_key(self, k)
        return k

    def mask(self) -> int:
        """The cached support bitmask: bit i is set when x_i occurs."""
        k = self._mask
        if k is None:
            k = sum([1 << i for i, _ in self.exps])
            _set_mask(self, k)
        return k

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def exponent(self, i: int) -> int:
        for j, e in self.exps:
            if j == i:
                return e
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        # a merge of the two sorted exponent tuples, zero sums dropped
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        out = []
        j, nb = 0, len(b)
        for i, e in a:
            while j < nb and b[j][0] < i:
                out.append(b[j])
                j += 1
            if j < nb and b[j][0] == i:
                e += b[j][1]
                j += 1
                if not e:
                    continue
            out.append((i, e))
        out.extend(b[j:])
        return Monomial(tuple(out))

    def divides(self, other: "Monomial") -> bool:
        """Whether each exponent of self is at most other's (0 where absent):
        the package's one divisibility test, one pass over the pairs."""
        b = other.exps
        j, nb = 0, len(b)
        for i, e in self.exps:
            while j < nb and b[j][0] < i:
                if b[j][1] < 0:
                    return False
                j += 1
            if j < nb and b[j][0] == i:
                if e > b[j][1]:
                    return False
                j += 1
            elif e > 0:
                return False
        return all(f >= 0 for _, f in b[j:])

    def divide(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple((i, e - f) for i, e, f in _aligned(self.exps, other.exps) if e != f))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple((i, max(e, f)) for i, e, f in _aligned(self.exps, other.exps)))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple((i, m) for i, e, f in _aligned(self.exps, other.exps) if (m := min(e, f)))
        )

    def is_coprime(self, other: "Monomial") -> bool:
        return not self.mask() & other.mask()


def _aligned(a, b):
    """(i, e, f) for every index i in either sorted pair tuple, in order,
    with e and f its exponents in a and b (0 where absent)."""
    j, nb = 0, len(b)
    for i, e in a:
        while j < nb and b[j][0] < i:
            yield b[j][0], 0, b[j][1]
            j += 1
        if j < nb and b[j][0] == i:
            yield i, e, b[j][1]
            j += 1
        else:
            yield i, e, 0
    for i, f in b[j:]:
        yield i, 0, f


_set_exps = Monomial.exps.__set__
_set_mono_hash = Monomial._hash.__set__
_set_key = Monomial._key.__set__
_set_mask = Monomial._mask.__set__


MONO_ONE = Monomial(())


def _grevlex_key(pairs):
    """The grevlex key of the sorted (i, e) pairs of a monomial in Z^n, for
    any n (larger key = larger monomial): the degree, then per pair from
    the last index down (-i-1, -e) if e > 0 and (i+1, -e) if e < 0, then
    (0,), which stands for the zeros below and so sorts between the two."""
    degree, entries = 0, []
    for i, e in reversed(pairs):
        degree += e
        entries.append((-i - 1, -e) if e > 0 else (i + 1, -e))
    return (degree, *entries, (0,))


class Polynomial:
    """Sparse polynomial with rational coefficients over a fixed VarTable:
    ints where integral, Fractions elsewhere (see the module docstring)."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: VarTable, terms=None):
        object.__setattr__(self, "ctx", ctx)
        clean = {}
        if terms:
            _refuse_negative(ctx, terms)
            for m, c in terms.items():
                if c.__class__ is not int:
                    c = _canon(Fraction(c))
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self.ctx, self.terms))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarTable) -> "Polynomial":
        return _trusted(ctx, {})

    @classmethod
    def constant(cls, ctx: VarTable, c) -> "Polynomial":
        return cls(ctx, {MONO_ONE: c})

    @classmethod
    def variable(cls, ctx: VarTable, i: int) -> "Polynomial":
        return _trusted(ctx, {Monomial(((i, 1),)): 1})

    @classmethod
    def monomial(cls, ctx: VarTable, m: Monomial, c=1) -> "Polynomial":
        return cls(ctx, {m: c})

    # -- ring operations -------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch("polynomials live over different variable tables")

    def _operand(self, other):
        """`other` as a polynomial over this table; None if it is no ring element."""
        if other.__class__ is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return None
            return Polynomial.constant(self.ctx, other)
        self._check(other)
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _trusted(self.ctx, _add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _trusted(self.ctx, _add_into(dict(self.terms), other.terms, negate=True))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 0:
                return _trusted(self.ctx, {})
            q = _canon(other)
            terms = {}
            for m, c in self.terms.items():
                c = c * q
                if c.__class__ is not int:
                    c = _canon(c)
                terms[m] = c
            return _trusted(self.ctx, terms)
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                c = c1 * c2
                s = terms.get(m)
                if s is not None:
                    c += s
                    if not c:
                        del terms[m]
                        continue
                if c.__class__ is not int:
                    c = _canon(c)
                terms[m] = c
        return _trusted(self.ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PcglError("negative polynomial powers are not defined")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Polynomial.constant(self.ctx, 1) if result is None else result

    def __eq__(self, other):
        if other.__class__ is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.ctx, other)
        return (self.ctx is other.ctx or self.ctx == other.ctx) and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ctx, tuple(sorted(self.terms.items(), key=lambda t: t[0].exps))))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == MONO_ONE for m in self.terms)

    def total_degree(self) -> int:
        """Max total degree over terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree() for m in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(m.exponent(i) for m in self.terms)

    def support(self) -> set[int]:
        s = set()
        for m in self.terms:
            s.update(m.support())
        return s

    def has_negative_exponent(self) -> bool:
        return any(e < 0 for m in self.terms for _, e in m.exps)

    def split_by_degree_in(self, i: int) -> dict[int, "Polynomial"]:
        """Group terms by their exponent in variable i (as polynomials with
        that variable divided out)."""
        parts: dict[int, dict] = {}
        for m, c in self.terms.items():
            rest = Monomial.make((j, e) for j, e in m.exps if j != i)
            parts.setdefault(m.exponent(i), {})[rest] = c
        return {e: _trusted(self.ctx, t) for e, t in parts.items()}

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for m, c in sorted(self.terms.items(), key=lambda t: t[0].grevlex(), reverse=True):
            body = _term_string(self.ctx, m, abs(c))
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append((" - " if c < 0 else " + ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


_set_ctx = Polynomial.ctx.__set__
_set_terms = Polynomial.terms.__set__
_set_poly_hash = Polynomial._hash.__set__


def _canon(c):
    """The rational c in canonical form: an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _qdiv(a, b):
    """The exact quotient a / b of two rationals, in canonical form.  Every
    coefficient division goes through here: `/` on two ints is a float."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canon(a / b)


def _add_term(acc: dict, m: Monomial, c):
    """Add the rational c to the coefficient of m in the term dict acc, in
    canonical form; a zero sum is dropped."""
    s = acc.get(m)
    if s is not None:
        c += s
        if not c:
            del acc[m]
            return
    if c.__class__ is not int:
        c = _canon(c)
    acc[m] = c


def _add_into(terms: dict, other: dict, negate: bool = False) -> dict:
    """Add the terms `other` to, or subtract them from, the dict `terms`."""
    for m, c in other.items():
        _add_term(terms, m, -c if negate else c)
    return terms


def _refuse_negative(ctx: VarTable, terms) -> None:
    """Raise PcglError when a monomial of `terms` has a negative exponent on
    a variable of ctx without the Laurent flag."""
    laurent = ctx.laurent
    for m in terms:
        for i, e in m.exps:
            if e < 0 and not laurent[i]:
                raise PcglError(f"negative exponent on non-Laurent variable {ctx.names[i]!r}")


def _trusted(ctx: VarTable, terms: dict) -> Polynomial:
    """The private constructor: wraps `terms` as it is, with no copy, no
    coercion and no zero filter; its values must be canonical coefficients
    (see the module docstring)."""
    p = object.__new__(Polynomial)
    _set_ctx(p, ctx)
    _set_terms(p, terms)
    _set_poly_hash(p, None)
    return p


def _variable_index(f: Polynomial) -> int | None:
    """i when f is the generator x_i (one term, coefficient 1), else None."""
    if len(f.terms) == 1:
        ((m, c),) = f.terms.items()
        if c == 1 and len(m.exps) == 1 and m.exps[0][1] == 1:
            return m.exps[0][0]
    return None


def _term_string(ctx: VarTable, m: Monomial, c) -> str:
    if m == MONO_ONE:
        return str(c)
    vars_part = "*".join(
        ctx.names[i] if e == 1 else f"{ctx.names[i]}^{e}" for i, e in m.exps
    )
    if c == 1:
        return vars_part
    return f"{c}*{vars_part}"


def re_context(f: Polynomial, ctx: VarTable) -> Polynomial:
    """Move a polynomial to another variable table, matching variables by name.

    When f has no negative exponent and every variable it uses keeps its
    index (a move to a prefix or an extension of the table), the monomials
    are the same and the new polynomial shares f's term dict, which nobody
    mutates.  The target table keeps each move, keyed by f, whose own table
    is part of its value."""
    if f.ctx is ctx or f.ctx == ctx:
        return f
    return _memo(ctx._moved, f, _move, f, ctx)


def _move(f: Polynomial, ctx: VarTable) -> Polynomial:
    """The move of `re_context`, made afresh."""
    src = f.ctx
    n = len(ctx)
    support = f.support()
    if not f.has_negative_exponent() and all(
        i < n and ctx.names[i] == src.names[i] for i in support
    ):
        return _trusted(ctx, f.terms)
    mapping = {i: ctx.index(src.names[i]) for i in support}
    terms = {Monomial.make((mapping[i], e) for i, e in m.exps): c for m, c in f.terms.items()}
    _refuse_negative(ctx, terms)
    return _trusted(ctx, terms)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\s+)|(\d+|[A-Za-z_]\w*|[-+*^()/])|(.)", re.S | re.ASCII)


def parse(text: str, ctx: VarTable) -> Polynomial:
    """Parse an expression with rational literals, + - * ^ and parentheses.

    Division appears only inside rational literals `p/q`; negative exponents
    are accepted only on Laurent-flagged variables.  The grammar:

        sum     := product (("+" | "-") product)*
        product := factor ("*" factor)*
        factor  := ("+" | "-") factor | atom ("^" ["+" | "-"] digits)?
        atom    := digits ["/" digits] | name | "(" sum ")"

    One tokenizing pass comes first, so a character outside the grammar is
    refused before any syntax error.  Each product then accumulates a
    coefficient and an exponent per variable; only a parenthesized factor
    is a `Polynomial` multiplied in.  Nesting, by parentheses or by a run
    of unary signs, deeper than the interpreter's recursion limit allows
    is a ParseError at the bracket or sign run where the limit was reached.
    """
    toks, poss = [], []
    pos = 0
    for space, tok, bad in _TOKEN_RE.findall(text):
        if bad:
            raise ParseError(f"unexpected character {bad!r}", pos)
        if tok:
            toks.append(tok)
            poss.append(pos)
        pos += len(space or tok)
    toks.append("")
    poss.append(pos)
    reached = [0]
    try:
        result, i = _sum(toks, poss, 0, ctx, reached)
    except RecursionError:
        raise ParseError("expression nested too deeply", poss[reached[0]]) from None
    if toks[i]:
        raise ParseError(f"unexpected trailing token {toks[i]!r}", poss[i])
    return result


def _sum(toks, poss, i, ctx, reached):
    """The sum starting at token i and the index of the token after it.
    Recurses only at a parenthesized factor; `reached` holds the index of
    the last bracket or unary sign that opened a level."""
    names, laurent = ctx._pos, ctx.laurent
    acc = {}
    negate = False
    while True:
        coeff, exps, factors = 1, {}, []
        while True:
            tok = toks[i]
            if tok == "-" or tok == "+":
                reached[0] = i
                odd, i = _signs(toks, i)
                if odd:
                    coeff = -coeff
                tok = toks[i]
            var = names.get(tok)
            if var is None:
                if tok[:1].isdecimal():
                    value = int(tok)
                    if toks[i + 1] == "/":
                        i += 2
                        if not toks[i][:1].isdecimal():
                            raise ParseError("expected denominator digits", poss[i])
                        den = int(toks[i])
                        if not den:
                            raise ParseError("zero denominator in rational literal", poss[i])
                        value = Fraction(value, den)
                elif tok == "(":
                    reached[0] = i
                    value, i = _sum(toks, poss, i + 1, ctx, reached)
                    if toks[i] != ")":
                        raise ParseError("expected ')'", poss[i])
                elif tok and tok not in "-+*^()/":
                    raise UnknownVariable(f"unknown variable {tok!r}", poss[i])
                else:
                    raise ParseError(
                        f"unexpected token {tok!r}" if tok else "unexpected end of input", poss[i]
                    )
            i += 1
            e = 1
            if toks[i] == "^":
                sign = toks[i + 1]
                i += 2 if sign == "-" or sign == "+" else 1
                if not toks[i][:1].isdecimal():
                    raise ParseError("expected integer exponent", poss[i])
                e = -int(toks[i]) if sign == "-" else int(toks[i])
                if e < 0 and (var is None or not laurent[var]):
                    raise NegativeExponent(
                        "negative exponent allowed only on Laurent variables", poss[i]
                    )
                i += 1
            if var is not None:
                exps[var] = exps.get(var, 0) + e
            elif value.__class__ is Polynomial:
                factors.append(value if e == 1 else value ** e)
            else:
                coeff = coeff * value ** e
            if toks[i] != "*":
                break
            i += 1
        if coeff:
            if coeff.__class__ is not int:
                coeff = _canon(coeff)
            if negate:
                coeff = -coeff
            m = Monomial.make(exps) if exps else MONO_ONE
            if factors:
                p = _trusted(ctx, {m: coeff})
                for f in factors:
                    p = p * f
                _add_into(acc, p.terms)
            else:
                _add_term(acc, m, coeff)
        tok = toks[i]
        if tok == "+":
            negate = False
        elif tok == "-":
            negate = True
        else:
            return _trusted(ctx, acc), i
        i += 1


def _signs(toks, i):
    """Whether the run of unary signs from token i holds an odd number of
    minus signs, and the index of the token after the run.  A sign nests
    the factor after it (factor := sign factor), one level per sign."""
    tok = toks[i]
    if tok == "-" or tok == "+":
        odd, i = _signs(toks, i + 1)
        return odd ^ (tok == "-"), i
    return False, i


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


class Derivation(_Value):
    """A derivation given by generator images, extended by the Leibniz rule;
    immutable, compared and hashed by (ctx, the images as a frozenset)."""

    def __init__(self, ctx: VarTable, images: dict[int, Polynomial]):
        images = dict(images)
        for img in images.values():
            if img.ctx is not ctx and img.ctx != ctx:
                raise ContextMismatch("derivation image over wrong variable table")
        vars(self).update(
            ctx=ctx,
            images=images,
            # the one-row table of `_chain_rule`: row i is D(x_i), if nonzero
            _rows=tuple(
                ((0, tuple(img.terms.items())),) if (img := images.get(i)) else ()
                for i in range(len(ctx))
            ),
        )

    def _fields(self):
        return (self.ctx, frozenset(self.images.items()))

    def __call__(self, f: Polynomial) -> Polynomial:
        """D(f) = sum_i D(x_i) * df/dx_i, computed exactly."""
        if f.ctx is not self.ctx and f.ctx != self.ctx:
            raise ContextMismatch("polynomial over a different variable table")
        missing = f.support().difference(self.images)
        if missing:
            names = ", ".join(self.ctx.names[i] for i in sorted(missing))
            raise MissingImage(f"no image for variable(s) {names}")
        return _chain_rule(self._rows, f, 1)[0]


def _drop_one(exps, k: int) -> Monomial:
    """m / x_i, where (i, e) = exps[k] is the exponent of x_i in m."""
    i, e = exps[k]
    if e == 1:
        return Monomial(exps[:k] + exps[k + 1:])
    return Monomial(exps[:k] + ((i, e - 1),) + exps[k + 1:])


def _chain_rule(rows, f: Polynomial, width: int) -> list[Polynomial]:
    """The chain rule for derivations fixed by their values on generators:
    D_j(f) = sum_i D_j(x_i) * df/dx_i for j < width, in one sweep over the
    terms of f.  Row i holds (j, terms of D_j(x_i)) for every nonzero
    image, the terms as (monomial, coefficient) items.  On one term a*m,
    each x_i of m contributes a * e_i * (m / x_i) * D_j(x_i), with e_i the
    exponent of x_i in m (negative on Laurent variables)."""
    out = [{} for _ in range(width)]
    for m, a in f.terms.items():
        exps = m.exps
        for k, (i, e) in enumerate(exps):
            row = rows[i]
            if not row:
                continue
            rest = _drop_one(exps, k)
            ae = a * e
            for j, terms in row:
                acc = out[j]
                for t, c in terms:
                    _add_term(acc, rest * t, ae * c)
    return [_trusted(f.ctx, acc) for acc in out]
