"""Commutative graded algebra structures with odd-part antisymmetry, their
defining identities, modules, semidirect sums, and dual modules.

A structure is stored as a completed ordered product table over a
`core.GradedSpace`.  Its validity is checked identity by identity
(`check_axioms`, and the reformulated system `check_axioms_v2`) and as the
square-zero test of the associated odd element under the alternated
bracket (`zero_square_check`).  The four identities are written out once,
in `_identity_residuals`: `check_axioms` records their residuals, and
`zero_square_check` compares each block of [m, m] from the bracket engine
with a fixed multiple of them.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from typing import Mapping

from .core import (GradedSpace, MultiMap, Vector, as_integers,
                   common_denominator, complete_product_table, divided,
                   scalar)
from . import brackets

__all__ = [
    "CheckReport",
    "Violation",
    "AntialgebraStructure",
    "ModuleStructure",
    "check_axioms",
    "check_axioms_v2",
    "zero_square_check",
    "semidirect",
    "adjoint_module",
    "trivial_module",
    "dual_module",
    "dual_label",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Violation:
    __slots__ = ("kind", "instance", "residual")

    def __init__(self, kind, instance, residual):
        self.kind = kind
        self.instance = instance
        self.residual = residual

    def __repr__(self):
        return f"Violation({self.kind}, {self.instance}, {self.residual!r})"


class CheckReport:
    """Outcome of an identity check: counters plus every violated instance."""

    def __init__(self, title: str):
        self.title = title
        self.checked = 0
        self.skipped = 0
        self.violations: list[Violation] = []
        self.extras: dict = {}

    def record(self, kind, instance, residual) -> None:
        """Count one instance; a nonzero/None-free residual is a violation."""
        if residual is None:
            self.skipped += 1
            return
        self.checked += 1
        if isinstance(residual, Vector):
            nonzero = not residual.is_zero()
        elif isinstance(residual, dict):
            nonzero = any(residual.values())
        else:
            nonzero = bool(residual)
        if nonzero:
            self.violations.append(Violation(kind, instance, residual))

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "CheckReport") -> None:
        self.checked += other.checked
        self.skipped += other.skipped
        self.violations.extend(other.violations)
        self.extras.update(other.extras)

    def lines(self) -> list:
        out = [
            ("report", self.title),
            ("status", "pass" if self.ok else "fail"),
            ("checked", self.checked),
            ("skipped", self.skipped),
            ("violations", len(self.violations)),
        ]
        for key in sorted(self.extras, key=str):
            out.append((f"extra.{key}", self.extras[key]))
        for v in self.violations:
            out.append(("violation", f"{v.kind} at {v.instance}: {v.residual!r}"))
        return out

    def text(self) -> str:
        return "\n".join(f"{k}: {v}" for k, v in self.lines())

    def __repr__(self):
        word = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"CheckReport({self.title!r}, {word})"


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

class AntialgebraStructure:
    """A graded-commutative product table on a graded space.

    The constructor symmetrises a partial table (mirror pairs filled with the
    sign (-1)^{|a||b|}) and validates grading closure: a product of basis
    vectors of parities i and j must be supported in parity i+j (mod 2).
    """

    def __init__(self, space: GradedSpace, products: Mapping, name: str = ""):
        self.space = space
        self.name = name
        self.products = complete_product_table(space, products)
        for (a, b), coeffs in self.products.items():
            want = (space.parity(a) + space.parity(b)) % 2
            for l in coeffs:
                if space.parity(l) != want:
                    raise ValueError(
                        f"product {a!r} * {b!r} is not parity-preserving")

    @classmethod
    def from_file_doc(cls, doc) -> "AntialgebraStructure":
        return cls(doc.space, doc.products, name=doc.name)

    def mul(self, a, b) -> Vector:
        """Product of two basis labels."""
        return Vector(self.space, self.products.get((a, b), {}))

    def product_map(self) -> dict:
        """The full product as raw {(a, b): {label: coeff}} (ordered pairs)."""
        return {k: dict(v) for k, v in self.products.items()}

    def m_blocks(self) -> brackets.BlockMap:
        """The structure as an odd element of the alternated algebra.

        Three blocks: the even-even part carries the extra factor 1/2, the
        mixed part is taken in the (x, y) order, the odd-odd part verbatim.
        """
        sp = self.space
        b20: dict = {}
        for a in sp.even:
            for b in sp.even:
                for l, c in self.mul(a, b).items():
                    b20[((a, b), (), l)] = c / 2
        b11: dict = {}
        for a in sp.even:
            for y in sp.odd:
                for l, c in self.mul(a, y).items():
                    b11[((a,), (y,), l)] = c
        b02: dict = {}
        for y1 in sp.odd:
            for y2 in sp.odd:
                for l, c in self.mul(y1, y2).items():
                    b02[((), (y1, y2), l)] = c
        blocks = {
            (2, 0): MultiMap(sp, 2, 0, b20),
            (1, 1): MultiMap(sp, 1, 1, b11),
            (0, 2): MultiMap(sp, 0, 2, b02),
        }
        return brackets.BlockMap(sp, 2, blocks)

    def __repr__(self):
        return (f"AntialgebraStructure({self.name or '?'}, "
                f"dim {self.space.dim0}|{self.space.dim1})")


class ModuleStructure:
    """A graded module over an antialgebra, given by its action table.

    The action must be parity-preserving: rho_a(b) lies in the module
    component of parity |a| + |b| (mod 2).  Full module validity is the
    statement that the semidirect sum passes the axiom check; see
    `semidirect`.
    """

    def __init__(self, base: AntialgebraStructure, space: GradedSpace,
                 action: Mapping, name: str = ""):
        self.base = base
        self.space = space
        self.name = name
        table: dict = {}
        for (a, b), coeffs in action.items():
            base.space.parity(a)
            want = (base.space.parity(a) + space.parity(b)) % 2
            cleaned = {l: scalar(c) for l, c in coeffs.items() if scalar(c)}
            for l in cleaned:
                if space.parity(l) != want:
                    raise ValueError(
                        f"action {a!r} . {b!r} is not parity-preserving")
            if cleaned:
                table[(a, b)] = cleaned
        self.action = table

    def act(self, a, b) -> Vector:
        """rho_a applied to the module basis label b."""
        return Vector(self.space, self.action.get((a, b), {}))

    def act_vec(self, u: Vector, v: Vector) -> Vector:
        out = Vector.zero(self.space)
        for la, ca in u.items():
            for lb, cb in v.items():
                out = out.add(self.act(la, lb).scale(ca * cb))
        return out

    def __repr__(self):
        return (f"ModuleStructure({self.name or '?'}, "
                f"dim {self.space.dim0}|{self.space.dim1})")


# ---------------------------------------------------------------------------
# the identity checkers
# ---------------------------------------------------------------------------

def _mul_into(acc: dict, table: Mapping, u: Mapping, v: Mapping, c) -> None:
    """acc += c * (u.v) for raw {label: coeff} vectors u, v, reading the
    product of basis labels off the ordered table {(a, b): {label: coeff}}."""
    for la, ca in u.items():
        for lb, cb in v.items():
            row = table.get((la, lb))
            if row:
                k = c * ca * cb
                for l, w in row.items():
                    acc[l] = acc.get(l, 0) + k * w


def _record(rep: CheckReport, space, kind, instance, acc: dict, d: int):
    """Record the residual acc / d; only a nonzero one becomes a Vector."""
    res = divided(acc, d)
    rep.record(kind, instance, Vector(space, res) if res else {})


def _integer_table(table: Mapping):
    """(T, D): the table as integers T = D * table over the least common
    denominator D of its coefficients, an absent product reading as {}."""
    exact = {k: {l: scalar(c) for l, c in v.items()} for k, v in table.items()}
    d = common_denominator(c for v in exact.values() for c in v.values())
    return defaultdict(dict, {k: as_integers(v.items(), d)
                              for k, v in exact.items()}), d


def _check_table(rep: CheckReport, space: GradedSpace, table: Mapping):
    """Record graded commutativity and grading closure of every ordered
    pair; return `_integer_table(table)`."""
    t, d = _integer_table(table)
    for a in space.labels():
        for b in space.labels():
            ab, ba = t.get((a, b), {}), t.get((b, a), {})
            sign = -1 if (space.parity(a) == 1 and space.parity(b) == 1) else 1
            res = {l: ab.get(l, 0) - sign * ba.get(l, 0) for l in {*ab, *ba}}
            _record(rep, space, "commutativity", (a, b), res, d)
            want = (space.parity(a) + space.parity(b)) % 2
            bad = {l: c for l, c in ab.items() if space.parity(l) != want}
            _record(rep, space, "grading", (a, b), bad, d)
    return t, d


def _identity_residuals(space: GradedSpace, t: Mapping):
    """Yield (kind, instance, residual, w) for the four identities of
    `check_axioms` on every basis instance of the integer table T = D *
    table: the residual {label: int} is w * D^2 times the identity's."""
    e = {l: {l: 1} for l in space.labels()}
    ev, od = space.even, space.odd
    for x1 in ev:
        for x2 in ev:
            for x3 in ev:
                acc: dict = {}
                _mul_into(acc, t, e[x1], t[x2, x3], 1)
                _mul_into(acc, t, t[x1, x2], e[x3], -1)
                yield "assoc", (x1, x2, x3), acc, 1
    for x1 in ev:
        for x2 in ev:
            for y in od:
                acc = {}
                # the weights 1, -1/2 times 2
                _mul_into(acc, t, e[x1], t[x2, y], 2)
                _mul_into(acc, t, t[x1, x2], e[y], -1)
                yield "half_unit", (x1, x2, y), acc, 2
    for x in ev:
        for y1 in od:
            for y2 in od:
                acc = {}
                _mul_into(acc, t, e[x], t[y1, y2], 1)
                _mul_into(acc, t, t[x, y1], e[y2], -1)
                _mul_into(acc, t, e[y1], t[x, y2], -1)
                yield "leibniz", (x, y1, y2), acc, 1
    for y1 in od:
        for y2 in od:
            for y3 in od:
                acc = {}
                _mul_into(acc, t, e[y1], t[y2, y3], 1)
                _mul_into(acc, t, e[y2], t[y3, y1], 1)
                _mul_into(acc, t, e[y3], t[y1, y2], 1)
                yield "cyclic", (y1, y2, y3), acc, 1


def check_axioms(space: GradedSpace, table: Mapping,
                 title: str = "axioms") -> CheckReport:
    """Check the defining identities on every basis instance.

    ``table`` is a raw ordered product table {(a, b): {label: coeff}}; the
    graded-commutativity rule itself is checked first and reported as its own
    failure class, as are grading violations.  The four identities:

      assoc      x1.(x2.x3) = (x1.x2).x3             on even triples
      half_unit  x1.(x2.y) = (1/2)(x1.x2).y          even, even, odd
      leibniz    x.(y1.y2) = (x.y1).y2 + y1.(x.y2)   even, odd, odd
      cyclic     y1.(y2.y3) + y2.(y3.y1) + y3.(y1.y2) = 0   odd triples
    """
    rep = CheckReport(title)
    t, d = _check_table(rep, space, table)
    for kind, instance, acc, w in _identity_residuals(space, t):
        _record(rep, space, kind, instance, acc, w * d * d)
    return rep


def check_axioms_v2(space: GradedSpace, table: Mapping,
                    title: str = "axioms-v2") -> CheckReport:
    """The equivalent reformulated system:

      assoc       the even part is associative
      even_comm   left multiplications by even elements commute on everything
      odd_deriv   right multiplication by an odd element is an odd derivation:
                  (a.b).y = (a.y).b + (-1)^{|a|} a.(b.y)

    Graded commutativity and grading closure are checked as before.
    """
    rep = CheckReport(title)
    table, d = _check_table(rep, space, table)
    dd = d * d
    labels = space.labels()
    e = {l: {l: 1} for l in labels}
    ev, od = space.even, space.odd

    for x1 in ev:
        for x2 in ev:
            for x3 in ev:
                acc: dict = {}
                _mul_into(acc, table, e[x1], table[x2, x3], 1)
                _mul_into(acc, table, table[x1, x2], e[x3], -1)
                _record(rep, space, "assoc", (x1, x2, x3), acc, dd)
    for x1 in ev:
        for x2 in ev:
            for a in labels:
                acc = {}
                _mul_into(acc, table, e[x1], table[x2, a], 1)
                _mul_into(acc, table, e[x2], table[x1, a], -1)
                _record(rep, space, "even_comm", (x1, x2, a), acc, dd)
    for a in labels:
        sign = -1 if space.parity(a) else 1
        for b in labels:
            for y in od:
                acc = {}
                _mul_into(acc, table, table[a, b], e[y], 1)
                _mul_into(acc, table, table[a, y], e[b], -1)
                _mul_into(acc, table, e[a], table[b, y], -sign)
                _record(rep, space, "odd_deriv", (a, b, y), acc, dd)
    return rep


# ---------------------------------------------------------------------------
# the square-zero test
# ---------------------------------------------------------------------------

# [m, m] block by block as a multiple of one identity's residuals:
# kind -> ((p, q), numerator, denominator) of that multiple
_SQUARE_OF = {
    "assoc": ((3, 0), -1, 2),
    "half_unit": ((2, 1), -2, 1),
    "leibniz": ((1, 2), -1, 1),
    "cyclic": ((0, 3), 2, 3),
}


def zero_square_check(structure: AntialgebraStructure):
    """Compute [m, m] under the alternated bracket for the structure's odd
    element m and report every nonzero entry.

    Returns (report, block_map).  Each block is also compared with a fixed
    multiple of the residuals of `check_axioms`: [m, m] is -1/2 assoc on
    (3,0), -2 half_unit on (2,1), -leibniz on (1,2) and 2/3 cyclic on (0,3)
    (the last two are already alternating in the odd arguments).  A
    mismatch there means a transcription bug in the bracket engine itself
    and raises AssertionError naming the block.
    """
    m = structure.m_blocks()
    square = brackets.al_bracket_blocks(m, m)
    sp = structure.space
    t, d = _integer_table(structure.products)
    expected = {shape: {} for shape, _, _ in _SQUARE_OF.values()}
    for kind, instance, acc, w in _identity_residuals(sp, t):
        for l, c in acc.items():
            if c:
                (p, q), num, den = _SQUARE_OF[kind]
                expected[p, q][instance[:p], instance[p:], l] = Fraction(
                    num * c, den * w * d * d)
    rep = CheckReport(f"zero-square[{structure.name or '?'}]")
    for (p, q), want in expected.items():
        block = dict(square.block(p, q).entries())
        if block != want:
            raise AssertionError("bracket engine disagrees with direct "
                                 f"expansion on block ({p},{q})")
        by_args = defaultdict(dict)
        for (xs, ys, l), c in block.items():
            by_args[xs, ys][l] = c
        for xs in itertools.product(sp.even, repeat=p):
            for ys in itertools.combinations(sp.odd, q):
                rep.record(f"square[{p},{q}]", (xs, ys),
                           Vector._trusted(sp, by_args.get((xs, ys), {})))
    return rep, square


# ---------------------------------------------------------------------------
# semidirect sums and duals
# ---------------------------------------------------------------------------

def semidirect(module: ModuleStructure,
               name: str = "") -> AntialgebraStructure:
    """The semidirect sum a |x B: products

      (a, b).(a', b') = (a.a', rho_a b' + (-1)^{|a'||b|} rho_{a'} b).

    Requires disjoint basis labels.  The result is a valid structure exactly
    when the module axioms hold; run `check_axioms` on it to find out.
    """
    base = module.base
    clash = set(base.space.labels()) & set(module.space.labels())
    if clash:
        raise ValueError(f"algebra and module labels overlap: {sorted(map(str, clash))}")
    space = GradedSpace(base.space.even + module.space.even,
                        base.space.odd + module.space.odd)
    products: dict = {}

    def put(a, b, coeffs: Mapping):
        coeffs = {l: scalar(c) for l, c in coeffs.items() if scalar(c)}
        if coeffs:
            products[(a, b)] = coeffs

    for (a, b), coeffs in base.products.items():
        put(a, b, coeffs)
    for a in base.space.labels():
        pa = base.space.parity(a)
        for v in module.space.labels():
            pv = module.space.parity(v)
            acted = module.act(a, v)
            put(a, v, dict(acted.items()))
            sign = Fraction(-1) ** (pa * pv)
            put(v, a, {l: sign * c for l, c in acted.items()})
    # B.B = 0: omitted entries are zero
    return AntialgebraStructure(space, products,
                                name=name or f"{base.name}|x{module.name}")


def _relabelled_space(space: GradedSpace, tag) -> GradedSpace:
    return GradedSpace(tuple((tag, l) for l in space.even),
                       tuple((tag, l) for l in space.odd))


def adjoint_module(structure: AntialgebraStructure,
                   tag="ad") -> ModuleStructure:
    """The algebra acting on a relabelled copy of itself by multiplication."""
    mspace = _relabelled_space(structure.space, tag)
    action: dict = {}
    for a in structure.space.labels():
        for b in structure.space.labels():
            coeffs = {(tag, l): c for l, c in structure.mul(a, b).items()}
            if coeffs:
                action[(a, (tag, b))] = coeffs
    return ModuleStructure(structure, mspace, action,
                           name=f"ad({structure.name})")


def trivial_module(structure: AntialgebraStructure, even_labels=("triv",),
                   odd_labels=()) -> ModuleStructure:
    """A module with identically zero action."""
    mspace = GradedSpace(even_labels, odd_labels)
    return ModuleStructure(structure, mspace, {}, name="trivial")


def dual_label(label):
    return ("dual", label)


def dual_module(module: ModuleStructure) -> ModuleStructure:
    """The dual module: (rho*_a u)(b) = (-1)^{|u||a|} u(rho_a b).

    Dual basis labels carry the parity of their underlying labels.  Under the
    canonical signed identification e -> (-1)^{|e|} e** the double dual
    returns the original action.
    """
    base = module.base
    dspace = GradedSpace(tuple(dual_label(l) for l in module.space.even),
                         tuple(dual_label(l) for l in module.space.odd))
    action: dict = {}
    for a in base.space.labels():
        pa = base.space.parity(a)
        for l in module.space.labels():
            pl = module.space.parity(l)
            sign = Fraction(-1) ** (pl * pa)
            coeffs: dict = {}
            for k in module.space.labels():
                c = module.act(a, k).coeff(l)
                if c:
                    coeffs[dual_label(k)] = sign * c
            if coeffs:
                action[(a, dual_label(l))] = coeffs
    return ModuleStructure(base, dspace, action,
                           name=f"dual({module.name})")
