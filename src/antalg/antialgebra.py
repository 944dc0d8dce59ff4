"""Commutative graded algebra structures with odd-part antisymmetry, their
defining identities, modules, semidirect sums, and dual modules.

A structure is stored as a completed ordered product table over a
`core.GradedSpace`.  Its validity is checked identity by identity
(`check_axioms`, and the reformulated system `check_axioms_v2`) and as the
square-zero test of the associated odd element under the alternated
bracket (`zero_square_check`).  One engine, `_identity_residuals`, scatters
the residuals of the laws (`_LAWS`) from the nonzero products of the
integer table, finite or a `zoo` window, on flat int keys (an instance's
slot positions and an output label's number) and returns the nonzero
ones alone: every other instance is counted in closed form, not
evaluated.  A `check` builds the table and the residuals once
(`_TablePass`) for all three checkers.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
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
        """Count one instance; a nonzero residual is a violation.  Every
        instance is decided, so a None residual is an error, not a skip."""
        if residual is None:
            raise TypeError(f"no residual for {kind} at {instance}")
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

    def merge(self, *others: "CheckReport") -> None:
        for other in others:
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
        self._set(space, complete_product_table(space, products), name)

    @classmethod
    def from_file_doc(cls, doc) -> "AntialgebraStructure":
        """The structure of a parsed file, whose table
        `core.parse_algebra_text` has completed already."""
        structure = cls.__new__(cls)
        structure._set(doc.space, dict(doc.products), doc.name)
        return structure

    def _set(self, space: GradedSpace, products: dict, name: str) -> None:
        self.space = space
        self.name = name
        self.products = products
        for (a, b), coeffs in products.items():
            want = (space.parity(a) + space.parity(b)) % 2
            for l in coeffs:
                if space.parity(l) != want:
                    raise ValueError(
                        f"product {a!r} * {b!r} is not parity-preserving")

    def mul(self, a, b) -> Vector:
        """Product of two basis labels."""
        return Vector(self.space, self.products.get((a, b), {}))

    def product_map(self) -> dict:
        """The full product as raw {(a, b): {label: coeff}} (ordered pairs)."""
        return {k: dict(v) for k, v in self.products.items()}

    def m_blocks(self) -> brackets.BlockMap:
        """The structure as an odd element of the alternated algebra.

        Three blocks read off the nonzero products of the table, which
        `_set` has validated: the even-even part carries the extra factor
        1/2, the mixed part is taken in the (x, y) order (its (y, x) mirrors
        are skipped), the odd-odd part verbatim.
        """
        sp, half = self.space, Fraction(1, 2)
        blocks: dict = {(2, 0): {}, (1, 1): {}, (0, 2): {}}
        for (a, b), coeffs in self.products.items():
            pa, pb = sp.parity(a), sp.parity(b)
            if pa > pb:  # an (odd, even) mirror
                continue
            if pb == 0:
                block, xs, ys = blocks[2, 0], (a, b), ()
            elif pa == 0:
                block, xs, ys = blocks[1, 1], (a,), (b,)
            else:
                block, xs, ys = blocks[0, 2], (), (a, b)
            for l, c in coeffs.items():
                block[xs, ys, l] = c * half if pb == 0 else c
        return brackets.BlockMap(sp, 2, {
            pq: MultiMap._trusted(sp, *pq, entries)
            for pq, entries in blocks.items()})

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
            want = (base.space.parity(a) + space.parity(b)) % 2
            cleaned = {l: s for l, c in coeffs.items() if (s := scalar(c))}
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

def _parse_term(c, term) -> tuple:
    """(c, right, slots, place) of a term of `_LAWS`: is its outer slot on
    the right, its slots as (outer, inner, inner), their getter from those."""
    right = term[0] == "("
    slots = [int(term[i]) for i in ((4, 1, 2) if right else (0, 2, 3))]
    return c, right, slots, operator.itemgetter(*map(slots.index, range(3)))


# The laws as data: (kind, slot domains, weight, terms) on an instance
# (s0, s1, s2), a domain E, O or L (even, odd or all labels), a term
# (c, "0(12)") c * s0.(s1.s2) and (c, "(01)2") c * (s0.s1).s2, parsed once,
# all weight times the law.  odd_deriv's sign -(-1)^{|a|} splits slot a.
_LAWS = tuple((kind, doms, weight, tuple(_parse_term(*t) for t in terms))
              for kind, doms, weight, terms in (
    ("assoc", "EEE", 1, ((1, "0(12)"), (-1, "(01)2"))),
    ("half_unit", "EEO", 2, ((2, "0(12)"), (-1, "(01)2"))),
    ("leibniz", "EOO", 1, ((1, "0(12)"), (-1, "(01)2"), (-1, "1(02)"))),
    ("cyclic", "OOO", 1, ((1, "0(12)"), (1, "1(20)"), (1, "2(01)"))),
    ("even_comm", "EEL", 1, ((1, "0(12)"), (-1, "1(02)"))),
    ("odd_deriv", "ELO", 1, ((1, "(01)2"), (-1, "(02)1"), (-1, "0(12)"))),
    ("odd_deriv", "OLO", 1, ((1, "(01)2"), (-1, "(02)1"), (1, "0(12)"))),
))
_DOM_ODD = {"E": (False,), "O": (True,), "L": (False, True)}  # s is odd?
_AXIOMS = ("assoc", "half_unit", "leibniz", "cyclic")  # of `check_axioms`
_V2 = ("assoc", "even_comm", "odd_deriv")  # of `check_axioms_v2`


def _integer_table(table: Mapping):
    """(T, D): the table as integers over the least common denominator D of
    its coefficients, nested as rows T[a][b] = D * (a.b) as {label: int},
    an absent product reading as {}."""
    exact = {k: {l: scalar(c) for l, c in v.items()} for k, v in table.items()}
    d = common_denominator(c for v in exact.values() for c in v.values())
    t = defaultdict(lambda: defaultdict(dict))
    for (a, b), v in exact.items():
        t[a][b] = as_integers(v.items(), d)
    return t, d


def _identity_residuals(space, t: Mapping, kinds, increasing=()) -> dict:
    """{kind: {instance: {label: int}}}, the nonzero residuals of the laws
    ``kinds`` on the integer table T, by instance in product order (for an
    ``increasing`` law, only at increasing instances, by label order).

    Slots range over the labels of ``space``, numbered by position, and the
    output labels are numbered by first appearance, so an (instance,
    output) pair is one int, (position triple) * n_out + output.  A term
    walks T's nonzero products at its inner slots and meets its outer one
    by T's column (s.(..)) or row ((..).s), tabulated once per side, slot
    domain and slot place as (s * weight of the place + output, T's
    entry); it adds into one flat {int: int} per law, in the order of an
    instance-by-instance sum, and only the nonzero sums are mapped back to
    labels.  T may also hold products of the slot labels with labels
    beyond them (a window's closure table), which are read only as outer
    products."""
    labels = (*space.even, *space.odd)
    n, n_even = len(labels), len(space.even)
    pos = {l: k for k, l in enumerate(labels)}
    outs: dict = {}  # output label -> its number, by first appearance
    # (right, s is odd) -> {l: [(s, its position, T[s][l])]} (right 0) or
    # {l: [(s, its position, T[l][s])]} (right 1), T's entry numbered
    index: dict = {(r, p): {} for r in (0, 1) for p in (False, True)}
    inner = []  # (a, b, their positions, a.b) for slot labels a, b
    for a, row in t.items():
        pa = pos.get(a, -1)
        for b, v in row.items():
            pb = pos.get(b, -1)
            if not v or pa < 0 and pb < 0:
                continue
            prod = [(outs.setdefault(o, len(outs)), z) for o, z in v.items()]
            if pa >= 0:
                index[0, pa >= n_even].setdefault(b, []).append((a, pa, prod))
                if pb >= 0:
                    inner.append((a, b, pa, pb, v))
            if pb >= 0:
                index[1, pb >= n_even].setdefault(a, []).append((b, pb, prod))
    weight = (n * n * len(outs), n * len(outs), len(outs))  # per slot place
    dom_pos = {"E": range(n_even), "O": range(n_even, n), "L": range(n)}
    tables: dict = {}  # (right, dom, place) -> {l: [(s, key part, z)]}
    pairs: dict = {}  # (dom, dom) -> the inner products in them
    found: dict = {kind: {} for kind in kinds}
    for kind, doms, _, terms in (law for law in _LAWS if law[0] in kinds):
        acc, inc = found[kind], kind in increasing
        get = acc.get
        for c, right, (so, si, sj), place in terms:
            do, di, dj = doms[so], doms[si], doms[sj]
            if (right, do, so) not in tables:
                w, tab = weight[so], {}
                for p in _DOM_ODD[do]:
                    for l, hits in index[right, p].items():
                        row = [(s, ps * w + o, z) for s, ps, prod in hits
                               for o, z in prod]
                        tab[l] = tab[l] + row if l in tab else row
                tables[right, do, so] = tab
            if (di, dj) not in pairs:
                pairs[di, dj] = [ab for ab in inner if ab[2] in dom_pos[di]
                                 and ab[3] in dom_pos[dj]]
            tab, wi, wj = tables[right, do, so], weight[si], weight[sj]
            for a, b, pa, pb, v in pairs[di, dj]:
                base = pa * wi + pb * wj
                for l, x in v.items():
                    hits = tab.get(l)
                    if not hits:
                        continue
                    if inc:
                        hits = [h for h in hits
                                if (i := place((h[0], a, b)))[0] < i[1] < i[2]]
                    cx = c * x
                    for _, k, z in hits:
                        k += base
                        acc[k] = get(k, 0) + cx * z
    n_out, names = len(outs), list(outs)
    for kind, acc in found.items():
        by_inst: dict = {}
        for k in [k for k, z in acc.items() if z]:
            q, o = divmod(k, n_out)
            by_inst.setdefault(q, {})[names[o]] = acc[k]
        found[kind] = {(labels[q // n // n], labels[q // n % n],
                        labels[q % n]): by_inst[q] for q in sorted(by_inst)}
    return found


def _identity_reports(space, t: Mapping, kinds, residual,
                      increasing=()) -> dict:
    """{kind: CheckReport} of the laws ``kinds`` on the integer table T from
    the nonzero residuals of one scatter (`_identity_residuals`), in product
    order: each is a violation, residual(acc, weight), and every other
    instance is a checked zero, counted in closed form and not evaluated.
    An ``increasing`` law has C(|O|, 3) instances."""
    size = {"E": len(space.even), "O": len(space.odd)}
    size["L"] = size["E"] + size["O"]
    reports = {}
    for kind, found in _identity_residuals(space, t, kinds,
                                           increasing).items():
        laws = [law for law in _LAWS if law[0] == kind]
        rep = reports[kind] = CheckReport(kind)
        rep.checked = (math.comb(size["O"], 3) if kind in increasing else sum(
            math.prod(map(size.get, law[1])) for law in laws))
        rep.violations = [Violation(kind, inst, residual(acc, laws[0][2]))
                          for inst, acc in found.items()]
    return reports


class _TablePass:
    """The integer table of one finite table and the reports of its
    residuals, each built once, on first use, and merged into the report of
    every checker of one `check`; ``kinds`` are the laws the pass serves."""

    def __init__(self, space: GradedSpace, table: Mapping,
                 kinds=_AXIOMS + _V2[1:]):
        self.space = space
        self.kinds = kinds
        self.t, self.d = _integer_table(table)

    def residual(self, acc: Mapping, d: int):
        """acc / d as an exact Vector, or {} when it is zero."""
        return Vector(self.space, divided(acc, d)) if any(acc.values()) else {}

    @cached_property
    def table(self) -> CheckReport:
        """Graded commutativity and grading closure of every ordered pair.
        One walk of T's nonzero products passes a pair whose a.b is
        (-1)^{|a||b|} b.a as an int dict and lies in parity |a| + |b|;
        only the pairs that fail it, in both orders, get their residuals
        evaluated, by position, and recorded where nonzero.  Every other
        pair is a checked zero of both laws, counted but not evaluated."""
        rep, sp, t = CheckReport("table"), self.space, self.t
        pos = {l: k for k, l in enumerate(sp.labels())}
        par = {l: sp.parity(l) for l in pos}  # None for a label beyond sp
        part = (set(sp.even), set(sp.odd))  # the labels of each parity
        pairs = set()  # the failing pairs, in both orders
        for a, row in t.items():
            pa = par.get(a)
            if pa is None:
                continue
            for b, v in row.items():
                pb = par.get(b)
                if not v or pb is None:
                    continue
                mirror = t.get(b, {}).get(a, {})
                if pa & pb:
                    mirror = {l: -z for l, z in mirror.items()}
                if mirror != v or not v.keys() <= part[pa ^ pb]:
                    pairs.update(((a, b), (b, a)))
        for a, b in sorted(pairs, key=lambda ab: (pos[ab[0]], pos[ab[1]])):
            ab, ba = t.get(a, {}).get(b, {}), t.get(b, {}).get(a, {})
            sign = (-1) ** (sp.parity(a) * sp.parity(b))
            res = {l: ab.get(l, 0) - sign * ba.get(l, 0) for l in {*ab, *ba}}
            want = (sp.parity(a) + sp.parity(b)) % 2
            bad = {l: c for l, c in ab.items() if sp.parity(l) != want}
            rep.violations += [
                Violation(kind, (a, b), self.residual(v, self.d))
                for kind, v in (("commutativity", res), ("grading", bad))
                if any(v.values())]
        rep.checked = 2 * len(pos) ** 2
        return rep

    @cached_property
    def identities(self) -> dict:
        """{kind: CheckReport} of the pass's laws, from one scatter."""
        dd = self.d**2
        return _identity_reports(self.space, self.t, self.kinds,
                                 lambda acc, w: self.residual(acc, w * dd))


def check_axioms(space: GradedSpace, table: Mapping,
                 title: str = "axioms", _pass=None) -> CheckReport:
    """Check the defining identities on every basis instance.

    ``table`` is a raw ordered product table {(a, b): {label: coeff}}; the
    graded-commutativity rule itself is checked first and reported as its own
    failure class, as are grading violations.  The four identities:

      assoc      x1.(x2.x3) = (x1.x2).x3             on even triples
      half_unit  x1.(x2.y) = (1/2)(x1.x2).y          even, even, odd
      leibniz    x.(y1.y2) = (x.y1).y2 + y1.(x.y2)   even, odd, odd
      cyclic     y1.(y2.y3) + y2.(y3.y1) + y3.(y1.y2) = 0   odd triples

    ``_pass``, a `_TablePass` of the same table, shares the residuals.
    """
    rep, shared = CheckReport(title), _pass or _TablePass(space, table, _AXIOMS)
    rep.merge(shared.table, *map(shared.identities.get, _AXIOMS))
    return rep


def check_axioms_v2(space: GradedSpace, table: Mapping,
                    title: str = "axioms-v2", _pass=None) -> CheckReport:
    """The equivalent reformulated system:

      assoc       the even part is associative
      even_comm   left multiplications by even elements commute on everything
      odd_deriv   right multiplication by an odd element is an odd derivation:
                  (a.b).y = (a.y).b + (-1)^{|a|} a.(b.y)

    The table's records and the laws are shared through ``_pass``, as there.
    """
    rep, shared = CheckReport(title), _pass or _TablePass(space, table, _V2)
    rep.merge(shared.table, *map(shared.identities.get, _V2))
    return rep


# ---------------------------------------------------------------------------
# the square-zero test
# ---------------------------------------------------------------------------

# kind -> ((p, q), w): block (p, q) of [m, m] is w times that kind's residuals
_SQUARE_OF = {
    "assoc": ((3, 0), Fraction(-1, 2)),
    "half_unit": ((2, 1), Fraction(-2)),
    "leibniz": ((1, 2), Fraction(-1)),
    "cyclic": ((0, 3), Fraction(2, 3)),
}


def zero_square_check(structure: AntialgebraStructure, _pass=None):
    """[m, m] under the alternated bracket for the structure's odd element m.

    Returns (report, block_map).  Each block is compared with a fixed
    multiple of the residuals of `check_axioms` (shared through ``_pass``,
    as there): [m, m] is -1/2 assoc on (3,0), -2 half_unit on (2,1),
    -leibniz on (1,2) and 2/3 cyclic on (0,3) (the last two are already
    alternating in the odd arguments).  A mismatch there means a
    transcription bug in the bracket engine itself and raises
    AssertionError naming the block.  The report counts every (xs, ys) at
    increasing ys and records the nonzero entries, read off the residuals.
    """
    m = structure.m_blocks()
    square = brackets.al_bracket_blocks(m, m)
    sp = structure.space
    shared = _pass or _TablePass(sp, structure.products, _AXIOMS)
    rep = CheckReport(f"zero-square[{structure.name or '?'}]")
    for kind, ((p, q), weight) in _SQUARE_OF.items():
        want = [(v.instance[:p], v.instance[p:],
                 {l: weight * c for l, c in v.residual.items()})
                for v in shared.identities[kind].violations]
        if dict(square.block(p, q).entries()) != {
                (xs, ys, l): c for xs, ys, val in want for l, c in val.items()}:
            raise AssertionError("bracket engine disagrees with direct "
                                 f"expansion on block ({p},{q})")
        rep.checked += len(sp.even) ** p * math.comb(len(sp.odd), q)
        rep.violations += [
            Violation(f"square[{p},{q}]", (xs, ys), Vector._trusted(sp, val))
            for xs, ys, val in want
            if all(sp.index(y) < sp.index(z) for y, z in zip(ys, ys[1:]))]
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
    clash = [l for l in module.space.even + module.space.odd
             if l in base.space]
    if clash:
        raise ValueError(f"algebra and module labels overlap: {sorted(map(str, clash))}")
    space = GradedSpace(base.space.even + module.space.even,
                        base.space.odd + module.space.odd)
    # the table's completion enters each mirror v.a = (-1)^{|a||v|} rho_a v;
    # B.B = 0: omitted entries are zero
    return AntialgebraStructure(space, {**base.products, **module.action},
                                name=name or f"{base.name}|x{module.name}")


def _relabelled_space(space: GradedSpace, tag) -> GradedSpace:
    return GradedSpace(tuple((tag, l) for l in space.even),
                       tuple((tag, l) for l in space.odd))


def adjoint_module(structure: AntialgebraStructure,
                   tag="ad") -> ModuleStructure:
    """The algebra acting on a relabelled copy of itself by multiplication."""
    action = {(a, (tag, b)): {(tag, l): c for l, c in coeffs.items()}
              for (a, b), coeffs in structure.products.items()}
    return ModuleStructure(structure, _relabelled_space(structure.space, tag),
                           action, name=f"ad({structure.name})")


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
    action: dict = {}  # the transpose of rho_a, signed
    for (a, k), coeffs in module.action.items():
        for l, c in coeffs.items():
            action.setdefault((a, dual_label(l)), {})[dual_label(k)] = (
                -c if base.space.parity(a) * module.space.parity(l) else c)
    return ModuleStructure(base, _relabelled_space(module.space, "dual"),
                           action, name=f"dual({module.name})")
