"""Exact scalars, graded spaces, sparse multilinear maps, parity bookkeeping,
and the structure-constant file format.

Everything is over Q and bit-exact.  Every public value is a
`fractions.Fraction`.  The identity checkers and the bracket engine compute on
`int`s over one common denominator (`common_denominator`, `as_integers`) and
divide once, into `Fraction`s, on exit (`divided`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "scalar",
    "format_scalar",
    "GradedSpace",
    "Vector",
    "MultiMap",
    "is_parity_preserving",
    "AlgebraFile",
    "complete_product_table",
    "parse_algebra_text",
    "parse_algebra_file",
    "ParseError",
]


def scalar(value) -> Fraction:
    """Coerce ints, strings like '-3/4', or Fractions to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def format_scalar(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def common_denominator(values: Iterable) -> int:
    """The least common multiple of the denominators of exact scalars."""
    return math.lcm(1, *{c.denominator for c in values})


def as_integers(items: Iterable, d: int) -> dict:
    """{key: d*c} for pairs (key, c) of scalars whose denominators divide d."""
    return {k: c.numerator * (d // c.denominator) for k, c in items}


def divided(acc: Mapping, d: int) -> dict:
    """{key: c/d} as Fractions for the nonzero integers c of ``acc``."""
    return {k: Fraction(c, d) for k, c in acc.items() if c}


class GradedSpace:
    """A finite-dimensional Z2-graded vector space with named basis vectors.

    `even` and `odd` are ordered tuples of distinct, hashable labels.
    """

    __slots__ = ("even", "odd", "_parity", "_index")

    def __init__(self, even: Iterable, odd: Iterable):
        even = tuple(even)
        odd = tuple(odd)
        labels = even + odd
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique across both gradings")
        self.even = even
        self.odd = odd
        self._parity = {}
        self._index = {}
        for i, l in enumerate(even):
            self._parity[l] = 0
            self._index[l] = i
        for i, l in enumerate(odd):
            self._parity[l] = 1
            self._index[l] = i

    @property
    def dim0(self) -> int:
        return len(self.even)

    @property
    def dim1(self) -> int:
        return len(self.odd)

    def parity(self, label) -> int:
        """Algebra grading of a basis label: 0 for even, 1 for odd."""
        try:
            return self._parity[label]
        except KeyError:
            raise KeyError(f"unknown basis label: {label!r}") from None

    def index(self, label) -> int:
        """Position of the label inside its grading component."""
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown basis label: {label!r}") from None

    def __contains__(self, label) -> bool:
        return label in self._parity

    def labels(self):
        return self.even + self.odd

    def vector(self, coeffs: Mapping) -> "Vector":
        """The Vector over this space with the given coefficients."""
        return Vector(self, coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSpace)
            and self.even == other.even
            and self.odd == other.odd
        )

    def __hash__(self):
        return hash((self.even, self.odd))

    def __repr__(self):
        return f"GradedSpace(even={list(self.even)}, odd={list(self.odd)})"


class Vector:
    """A sparse vector: a map from basis labels to nonzero exact scalars."""

    __slots__ = ("space", "_coeffs")

    def __init__(self, space: GradedSpace, coeffs: Mapping | None = None):
        self.space = space
        store = {}
        for label, c in (coeffs or {}).items():
            if label not in space:
                raise ValueError(f"label {label!r} not in the ambient space")
            c = scalar(c)
            if c:
                store[label] = c
        self._coeffs = store

    @classmethod
    def _trusted(cls, space: GradedSpace, store: dict) -> "Vector":
        """Wrap ``store``, whose labels lie in ``space`` and whose
        coefficients are nonzero Fractions, without checking it again."""
        v = cls.__new__(cls)
        v.space, v._coeffs = space, store
        return v

    @classmethod
    def basis(cls, space: GradedSpace, label) -> "Vector":
        return cls(space, {label: Fraction(1)})

    @classmethod
    def zero(cls, space: GradedSpace) -> "Vector":
        return cls(space, {})

    def coeff(self, label) -> Fraction:
        return self._coeffs.get(label, Fraction(0))

    def items(self):
        return self._coeffs.items()

    def support(self):
        return set(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def add(self, other: "Vector") -> "Vector":
        if self.space is not other.space and self.space != other.space:
            raise ValueError("cannot add vectors of different spaces")
        out = dict(self._coeffs)
        for l, c in other._coeffs.items():
            c += out.get(l, 0)
            if c:
                out[l] = c
            else:
                del out[l]
        return type(self)._trusted(self.space, out)

    def sub(self, other: "Vector") -> "Vector":
        return self.add(other.scale(-1))

    def scale(self, c) -> "Vector":
        c = scalar(c)
        return type(self)._trusted(self.space, {
            l: c * v for l, v in self._coeffs.items()} if c else {})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector)
            and self.space == other.space
            and self._coeffs == other._coeffs
        )

    def __repr__(self):
        if not self._coeffs:
            return "Vector(0)"
        parts = [f"{format_scalar(c)}*{l}" for l, c in sorted(
            self._coeffs.items(), key=lambda kv: str(kv[0]))]
        return "Vector(" + " + ".join(parts) + ")"


class MultiMap:
    """A sparse (p,q)-linear map V0^p x V1^q -> V.

    Entries are keyed by (x-multi-index, y-multi-index, output label) where
    x-multi-indices run over the even basis and y-multi-indices over the odd
    basis.  Arguments are never mixed between the gradings.  A map is read
    at basis labels (`value`); a formula that feeds it a vector expands that
    vector over its labels itself.
    """

    __slots__ = ("space", "p", "q", "_entries")

    def __init__(self, space: GradedSpace, p: int, q: int,
                 entries: Mapping | None = None):
        if p < 0 or q < 0:
            raise ValueError("argument counts must be non-negative")
        self.space = space
        self.p = p
        self.q = q
        store = {}
        for (xs, ys, out), c in (entries or {}).items():
            xs = tuple(xs)
            ys = tuple(ys)
            if len(xs) != p or len(ys) != q:
                raise ValueError(f"entry arity mismatch: {(xs, ys)}")
            for l in xs:
                if space.parity(l) != 0:
                    raise ValueError(f"x-argument {l!r} is not even")
            for l in ys:
                if space.parity(l) != 1:
                    raise ValueError(f"y-argument {l!r} is not odd")
            space.parity(out)  # raises on unknown label
            c = scalar(c)
            if c:
                store[(xs, ys, out)] = c
        self._entries = store

    @classmethod
    def _trusted(cls, space: GradedSpace, p: int, q: int,
                 store: dict) -> "MultiMap":
        """Wrap ``store`` (valid (p,q)-entries, nonzero Fractions) unchecked."""
        mm = cls.__new__(cls)
        mm.space, mm.p, mm.q, mm._entries = space, p, q, store
        return mm

    # -- basic structure ---------------------------------------------------

    @classmethod
    def zero(cls, space: GradedSpace, p: int, q: int) -> "MultiMap":
        return cls(space, p, q)

    def entries(self):
        return self._entries.items()

    def is_zero(self) -> bool:
        return not self._entries

    def coeff(self, xs, ys, out) -> Fraction:
        return self._entries.get((tuple(xs), tuple(ys), out), Fraction(0))

    def add(self, other: "MultiMap") -> "MultiMap":
        if (self.space, self.p, self.q) != (other.space, other.p, other.q):
            raise ValueError("cannot add maps of different spaces or shapes")
        out = dict(self._entries)
        for k, c in other._entries.items():
            out[k] = out.get(k, Fraction(0)) + c
        return MultiMap(self.space, self.p, self.q, out)

    def sub(self, other: "MultiMap") -> "MultiMap":
        return self.add(other.scale(-1))

    def scale(self, c) -> "MultiMap":
        c = scalar(c)
        return MultiMap(self.space, self.p, self.q,
                        {k: c * v for k, v in self._entries.items()})

    def output_gradings(self) -> set:
        return {self.space.parity(out) for (_, _, out) in self._entries}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiMap)
            and self.space == other.space
            and (self.p, self.q) == (other.p, other.q)
            and self._entries == other._entries
        )

    def __repr__(self):
        return (f"MultiMap(p={self.p}, q={self.q}, "
                f"{len(self._entries)} entries)")

    # -- evaluation --------------------------------------------------------

    def value(self, xs, ys) -> Vector:
        """Evaluate at basis labels (table lookup)."""
        xs = tuple(xs)
        ys = tuple(ys)
        out = {}
        for (exs, eys, l), c in self._entries.items():
            if exs == xs and eys == ys:
                out[l] = out.get(l, Fraction(0)) + c
        return Vector(self.space, out)


def is_parity_preserving(phi: MultiMap) -> bool:
    """True iff the V0-part vanishes for odd q and the V1-part for even q."""
    return phi.output_gradings() <= {phi.q % 2}


# ---------------------------------------------------------------------------
# structure-constant files
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Raised on malformed structure-constant input; carries a line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class AlgebraFile:
    """Parsed content of a structure-constant document.

    ``products`` maps ordered basis pairs to coefficient dicts and is already
    completed under the graded-commutativity rule
    a.b = (-1)^{|a||b|} b.a.  ``module`` is None or a triple
    (module_space, action) with ``action`` mapping (algebra label, module
    label) to coefficient dicts over the module space.
    """

    def __init__(self, name, space, products, module_space=None, action=None):
        self.name = name
        self.space = space
        self.products = products
        self.module_space = module_space
        self.action = action


_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _check_label(tok: str, lineno: int) -> str:
    if not _LABEL_RE.match(tok):
        raise ParseError(lineno, f"invalid basis label {tok!r}")
    return tok


_TERM_RE = re.compile(r"[+-]?[^+-]+|[+-]")  # a signed term, or a lone sign
_NUMERIC_RE = re.compile(r"\d")


def _parse_expr(text: str, space: GradedSpace, lineno: int) -> dict:
    """Parse c1*l1 + c2*l2 - ... into {label: Fraction}, making one
    Fraction per term: its sign is kept as a flag and read with the
    coefficient's text.  Each sign must lead a term of its own, so a run of
    signs (``--x``, ``e+-f``, ``e - -f``) or a trailing sign is an error."""
    out: dict = {}
    stripped = text.strip()
    if not stripped:
        raise ParseError(lineno, "empty right-hand side")
    if stripped == "0":
        return out
    for raw in _TERM_RE.findall(text):  # signed terms, or a lone sign
        term = raw.strip()
        if not term:
            continue
        negative = term[0] == "-"  # the one sign a term can lead with
        if term[0] in "+-":
            term = term[1:].strip()
        if not term:
            raise ParseError(lineno, "dangling sign in expression")
        if "*" in term:
            coeff_txt, _, label = term.partition("*")
            coeff_txt = coeff_txt.strip()
            label = label.strip()
        else:
            pieces = term.split()
            if len(pieces) == 2:
                coeff_txt, label = pieces
            elif len(pieces) == 1:
                piece = pieces[0]
                if _NUMERIC_RE.match(piece):
                    if piece == "0":
                        continue
                    raise ParseError(lineno, f"numeric term {piece!r} without label")
                coeff_txt, label = "1", piece
            else:
                raise ParseError(lineno, f"cannot parse term {raw.strip()!r}")
        try:
            # coeff_txt holds no sign: the terms were split at every sign
            coeff = Fraction("-" + coeff_txt if negative else coeff_txt)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad rational coefficient {coeff_txt!r}")
        if label not in space:
            raise ParseError(lineno, f"unknown label {label!r} in expression")
        if coeff:
            out[label] = out[label] + coeff if label in out else coeff
    return {l: c for l, c in out.items() if c}


def complete_product_table(space: GradedSpace, given: Mapping) -> dict:
    """Complete an ordered product table under a.b = (-1)^{|a||b|} b.a.

    ``given`` maps ordered pairs to coefficient dicts.  Missing mirror pairs
    are filled in with the graded-commutativity sign; conflicting explicit
    values raise ValueError.  Omitted products are zero and are not stored.
    """
    table: dict = {}
    for (a, b), coeffs in given.items():
        exact = {l: scalar(c) for l, c in coeffs.items()}
        _put_product(table, space, a, b, {l: c for l, c in exact.items() if c})
    return {k: v for k, v in table.items() if v}


def _put_product(table: dict, space: GradedSpace, a, b, coeffs: dict) -> None:
    """Enter a.b = ``coeffs``, nonzero Fractions, and its mirror b.a, a dict
    of its own, into ``table``; raise ValueError when either clashes with a
    value already there."""
    if space.parity(a) == 1 and space.parity(b) == 1:
        mirror = {l: -c for l, c in coeffs.items()}
    else:
        mirror = dict(coeffs)
    for key, val in (((a, b), coeffs), ((b, a), mirror)):
        if key in table and table[key] != val:
            raise ValueError(
                f"conflicting product values for {key[0]!r} * {key[1]!r}")
        table[key] = val


def parse_algebra_text(text: str) -> AlgebraFile:
    name = None
    even: list = []
    odd: list = []
    mod_even: list = []
    mod_odd: list = []
    product_lines = []  # (lineno, lhs_a, lhs_b, rhs_text)
    action_lines = []
    in_module = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "algebra":
            if len(toks) != 2:
                raise ParseError(lineno, "expected: algebra <name>")
            if name is not None:
                raise ParseError(lineno, "duplicate 'algebra' header")
            name = toks[1]
        elif head == "module":
            in_module = True
        elif head in ("even", "odd"):
            section = (mod_even, mod_odd) if in_module else (even, odd)
            for t in toks[1:]:
                if t in section[0] or t in section[1]:
                    raise ParseError(lineno, "basis labels must be unique "
                                     f"across both gradings: {t!r} repeats")
                section[head == "odd"].append(_check_label(t, lineno))
        elif "=" in line:
            lhs, _, rhs = line.partition("=")
            if "*" in lhs and not in_module:
                a, _, b = lhs.partition("*")
                product_lines.append((lineno, a.strip(), b.strip(), rhs.strip()))
            elif "." in lhs and in_module:
                a, _, b = lhs.partition(".")
                action_lines.append((lineno, a.strip(), b.strip(), rhs.strip()))
            else:
                raise ParseError(lineno, f"cannot parse statement {line!r}")
        else:
            raise ParseError(lineno, f"cannot parse statement {line!r}")
    if name is None:
        raise ParseError(1, "missing 'algebra <name>' header")
    space = GradedSpace(even, odd)
    given: set = set()
    table: dict = {}
    for lineno, a, b, rhs in product_lines:
        if a not in space or b not in space:
            raise ParseError(lineno, f"unknown label in product {a!r} * {b!r}")
        coeffs = _parse_expr(rhs, space, lineno)
        if (a, b) in given:
            raise ParseError(lineno, f"duplicate product line for {a!r} * {b!r}")
        given.add((a, b))
        try:
            _put_product(table, space, a, b, coeffs)
        except ValueError as exc:
            raise ParseError(lineno, str(exc))
    products = {k: v for k, v in table.items() if v}
    module_space = None
    action = None
    if in_module:
        module_space = GradedSpace(mod_even, mod_odd)
        action = {}
        for lineno, a, b, rhs in action_lines:
            if a not in space:
                raise ParseError(lineno, f"unknown algebra label {a!r} in action")
            if b not in module_space:
                raise ParseError(lineno, f"unknown module label {b!r} in action")
            if (a, b) in action:
                raise ParseError(lineno, f"duplicate action line for {a!r} . {b!r}")
            coeffs = _parse_expr(rhs, module_space, lineno)
            if coeffs:
                action[(a, b)] = coeffs
    return AlgebraFile(name, space, products, module_space, action)


def parse_algebra_file(path) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())

