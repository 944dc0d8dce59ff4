"""The coboundary operator on parity-preserving cochains, its exact matrix
model, derivation spaces, and abelian extensions from 2-cocycles.

A k-cochain with coefficients in a module B is a sum of (p,q)-blocks,
p + q = k, each a map V0^p x V1^q -> B that is antisymmetric in the odd
arguments and valued in the module component of parity q (mod 2).  The
coboundary has three components moving a block (p,q) to (p+1,q), (p,q+1)
and (p-1,q+2).  Each instance formula is written once, verbatim, as a
generator of signed terms (`delta10_terms`, `delta01_terms`,
`delta_12_terms`); `delta_instance` is the one place that sums them, and
evaluates delta at one instance (`zoo`'s eta reports, the tests' oracle).
A cochain is only read at basis labels (`Cochain.value`): where a formula
feeds it a product, the product's labels give one term each.

`DeltaContext` is the one place for delta's scalars and integer scale,
so the formulas run exactly or on integers.  delta^k is held on
integers: over the scale 2*D*L_k, D the common denominator of the
products and the action (the context's ``denominator``) and L_k =
lcm(1, .., k+1), read off the arity k of each source block.  One core
(`_delta_between`) assembles it between any two `CochainBasis`es:
`apply_delta_component` on the unit cochains of the source keys
(`_UnitCochains`) scatters each key through the transpose of each term
of that component's formula, over the nonzero products and actions,
straight into the rows of delta^k, so a key costs what its nonzero
products cost.  Every whole-cochain coboundary comes from it:
`apply_delta` of a cochain reads delta^k's columns at its support keys.
A finite structure gives it its bases (`_delta_matrix`), `zoo` the
finite weight slices of an infinite family (`CochainBasis.from_keys`),
both in one key order (`_cochain_keys`).  A finite complex clears its
tables of D once, into one context for all its degrees
(`_cleared_context`), which keeps the weighted products and the
scatter's inverted tables as long as the complex lives.
That one integer matrix per degree (`DifferentialMatrix`) is what the
complex is read from: rank delta^k is fraction-free elimination on its rows
(`cohomology_dims`), ker delta^1 is their nullspace, and delta^k delta^{k-1}
= 0 is one integer product per degree (`verify_complex`), checked as soon
as delta^k is built, so a complex with delta^2 != 0 is assembled no further
than its first failing degree (`assemble_complex`).  Solves run on it too,
and a value of delta is divided only once summed (`apply_delta`).

A context's product and action are total: on the infinite conformal
families (`zoo`) they are the global index formulas, so every instance
whose arguments lie in a window is decided exactly.
"""

from __future__ import annotations

import bisect
import copy
import functools
import itertools
import math
from fractions import Fraction

from . import brackets, linalg
from .brackets import _canonical_ys
from .antialgebra import (AntialgebraStructure, ModuleStructure,
                          check_axioms, semidirect)
from .core import (MultiMap, Vector, as_integers, common_denominator,
                   divided)

__all__ = [
    "DeltaContext",
    "Cochain",
    "CochainBasis",
    "DifferentialMatrix",
    "delta_instance",
    "apply_delta",
    "apply_delta_component",
    "delta_via_bracket",
    "assemble_complex",
    "cohomology_dims",
    "derivation_space",
    "kernel_of_delta1",
    "extension_from_cocycle",
    "solve_coboundary",
    "random_cochain",
]

COMPONENTS = ((1, 0), (0, 1), (-1, 2))


class DeltaContext:
    """Multiplication data entering the coboundary formulas.

    ``alg`` and ``mod`` are bases of the algebra and the module: they answer
    ``parity(label)`` and ``index(label)`` (the canonical order of odd
    labels), and ``mod`` builds module values with ``vector(coeffs)``.
    ``mul(a, b)`` and ``act(a, l)`` return {label: coeff} mappings, and
    so do the three methods (callers must not mutate them):

      m_alg(a, b)      the distinguished odd element on algebra labels:
                       half the product on even-even pairs, the product
                       otherwise; a pure function of (a, b) in one
                       context, so weighed once per label pair (memoized).
      m_x_val(x, v)    product of an even algebra label with a module
                       value: half the action on the even module component,
                       the action on the odd one.
      m_val_y(v, y)    product of a module value with an odd algebra
                       label: the action on the even component, minus the
                       action on the odd one.

    The scalars of delta, ``half``, ``one``, the unit sign `unit` and the
    block norms (`norm`), are written here alone.  A nonzero
    ``denominator`` D means ``mul`` and ``act`` are D times the structure's:
    then they are 1, 2, L_k = lcm(1, .., k+1) and L_k times the norms on a
    block of arity k, so each term of delta^k is `scale` = 2*D*L_k times
    its value; the default 0 keeps them exact.  ``tables`` holds the
    scatter's tables (`_UnitCochains`), for every degree alike.
    """

    def __init__(self, alg, mod, mul, act, *, denominator=0):
        self.alg, self.mod, self.mul, self.act = alg, mod, mul, act
        self.denominator = denominator
        self.half, self.one = ((1, 2) if denominator
                               else (Fraction(1, 2), Fraction(1)))
        self._weighted: dict = {}  # m_alg by label pair
        self.tables: dict = {}  # `_UnitCochains`' tables by target labels

    def unit(self, k):
        return math.lcm(*range(1, k + 2)) if self.denominator else 1

    def scale(self, k):
        return 2 * self.denominator * self.unit(k) if self.denominator else 1

    def norm(self, component, p, q):
        """The norm n/d of ``component`` from the block (p, q): 1/q for (1,0),
        2/(q+1) for (0,1) at p = 0 and q odd, else 1/(q+1), 2/((q+1)(q+2))
        for (-1,2).  On integers n*L_{p+q}/d, exact: d divides L_{p+q}."""
        n, d = ((1, q) if component == (1, 0) else
                (2 if p == 0 and q % 2 else 1, q + 1) if component == (0, 1)
                else (2, (q + 1) * (q + 2)))
        return n * self.unit(p + q) // d if self.denominator else Fraction(n, d)

    def m_alg(self, a, b):
        if (a, b) not in self._weighted:
            v = self.mul(a, b)
            even = self.alg.parity(a) == 0 == self.alg.parity(b)
            w = self.half if even else self.one
            self._weighted[a, b] = (
                v if w == 1 else {l: c * w for l, c in v.items()})
        return self._weighted[a, b]

    def _act_weighted(self, a, v, w0, w1):
        parity = self.mod.parity
        out: dict = {}
        for l, c in v.items():
            wc = (w0 if parity(l) == 0 else w1) * c
            for k, d in self.act(a, l).items():
                out[k] = out.get(k, 0) + wc * d
        return out

    def m_x_val(self, x, v):
        return self._act_weighted(x, v, self.half, self.one)

    def m_val_y(self, v, y):
        return self._act_weighted(y, v, self.one, -self.one)


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

class Cochain:
    """A degree-k cochain: blocks keyed (p,q), entries keyed by canonical
    argument tuples (even labels; strictly increasing odd labels).

    ``alg_space`` and ``mod_space`` are the bases of `DeltaContext`; for a
    finite structure they are the graded spaces of ``alg`` and ``mod``.
    Block values are given as vectors of the module basis or {label: coeff}
    dicts, stored as vectors, and read back at basis labels by `value`.
    """

    def __init__(self, alg: AntialgebraStructure, mod: ModuleStructure,
                 degree: int, blocks=None):
        self.alg = alg
        self.mod = mod
        self._fill(alg.space, mod.space, degree, blocks)

    def _fill(self, alg_space, mod_space, degree, blocks) -> None:
        if degree < 1:
            raise ValueError("cochains have degree >= 1; there is no C^0")
        self.alg_space = alg_space
        self.mod_space = mod_space
        self.degree = degree
        self._zero = mod_space.vector({})  # every miss of `value`, read only
        self._blocks: dict = {}
        for (p, q), table in (blocks or {}).items():
            if p < 0 or q < 0 or p + q != degree:
                raise ValueError(f"block ({p},{q}) does not fit degree {degree}")
            want_parity = q % 2
            clean = {}
            for (xs, ys), vec in table.items():
                xs = tuple(xs)
                ys = tuple(ys)
                for x in xs:
                    if alg_space.parity(x) != 0:
                        raise ValueError(f"x-argument {x!r} is not even")
                cys, sign = _canonical_ys(alg_space, ys)
                if cys != ys or sign != 1:
                    raise ValueError(
                        "block entries must use strictly increasing odd "
                        "arguments")
                if isinstance(vec, dict):
                    vec = mod_space.vector(vec)
                bad = {l for l, _ in vec.items()
                       if mod_space.parity(l) != want_parity}
                if bad:
                    raise ValueError(
                        f"({p},{q})-block values must lie in the module "
                        f"component of parity {want_parity}")
                if not vec.is_zero():
                    clean[(xs, ys)] = vec
            if clean:
                self._blocks[(p, q)] = clean

    def _like(self, blocks) -> "Cochain":
        new = copy.copy(self)
        new._fill(self.alg_space, self.mod_space, self.degree, blocks)
        return new

    # structure ------------------------------------------------------------

    def shapes(self):
        return sorted(self._blocks, key=lambda pq: (-pq[0], pq[1]))

    def block(self, p, q) -> dict:
        return self._blocks.get((p, q), {})

    def is_zero(self) -> bool:
        return not self._blocks

    def scale(self, c) -> "Cochain":
        return self._like({pq: {k: v.scale(c) for k, v in tbl.items()}
                           for pq, tbl in self._blocks.items()})

    def add(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise ValueError(f"cannot add cochains of degrees {self.degree} "
                             f"and {other.degree}")
        blocks: dict = {pq: dict(tbl) for pq, tbl in self._blocks.items()}
        for pq, tbl in other._blocks.items():
            mine = blocks.setdefault(pq, {})
            for k, v in tbl.items():
                mine[k] = mine[k].add(v) if k in mine else v
        return self._like(blocks)

    def sub(self, other: "Cochain") -> "Cochain":
        return self.add(other.scale(-1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self._blocks == other._blocks
        )

    def __repr__(self):
        sizes = {pq: len(tbl) for pq, tbl in self._blocks.items()}
        return f"{type(self).__name__}(degree={self.degree}, blocks={sizes})"

    # evaluation -----------------------------------------------------------

    def value(self, p, q, xs, ys):
        """Evaluate the (p,q)-block at basis labels, resolving the odd-
        argument sign; repeated odd labels give zero."""
        table = self._blocks.get((p, q))
        if table is None:
            return self._zero
        cys, sign = _canonical_ys(self.alg_space, tuple(ys))
        vec = None if cys is None else table.get((tuple(xs), cys))
        if vec is None:
            return self._zero
        return vec if sign == 1 else vec.scale(sign)


# ---------------------------------------------------------------------------
# the three coboundary components, each a stream of signed terms
# ---------------------------------------------------------------------------

def _through(coeff, prod, value_at):
    """The terms of coeff * c(.., m, ..) for a product m = {l: d}: one term
    (coeff * d, value_at(l)) per label."""
    for l, d in prod.items():
        yield coeff * d, value_at(l)


def delta10_terms(ctx: DeltaContext, coch, p, q, xs, ys):
    """The signed terms (coefficient, module value) of the
    contribution of the (p,q)-block to the (p+1,q)-block of the coboundary,
    evaluated at xs (p+1 even labels) and ys (q odd labels):

      - m(x0, c(x1..xp; ys))
      + sum_i (-1)^i c(x0.., m(xi,x_{i+1}), ..xp; ys)
      + (-1)^p m(c(x0..x_{p-1}), xp)                        if q = 0
      + (1/q) sum_j (-1)^{p+j} c(x0..x_{p-1}; m(xp,yj), ys\\yj)   if q > 0
    """
    u, norm = ctx.unit(p + q), q and ctx.norm((1, 0), p, q)
    yield -u, ctx.m_x_val(xs[0], coch.value(p, q, xs[1:], ys))
    for i in range(p):
        yield from _through(
            (-1) ** i * u, ctx.m_alg(xs[i], xs[i + 1]),
            lambda l: coch.value(p, q, xs[:i] + (l,) + xs[i + 2:], ys))
    if q == 0:
        yield (-1) ** p * u, ctx.m_x_val(xs[p], coch.value(p, q, xs[:p], ()))
    for j in range(q):
        yield from _through(
            (-1) ** (p + j) * norm, ctx.m_alg(xs[p], ys[j]),
            lambda l: coch.value(p, q, xs[:p], (l,) + ys[:j] + ys[j + 1:]))


def delta01_terms(ctx: DeltaContext, coch, p, q, xs, ys):
    """The signed terms of the contribution of the (p,q)-block to the
    (p,q+1)-block, at xs (p even labels) and ys (q+1 odd labels):

      (2/(q+1)) sum_j (-1)^j     m(c(ys\\yj), yj)        if p = 0, q odd
      (1/(q+1)) sum_j (-1)^{p+j} m(c(xs; ys\\yj), yj)    otherwise
    """
    norm = ctx.norm((0, 1), p, q)
    for j in range(q + 1):
        yield (-1) ** (p + j) * norm, ctx.m_val_y(
            coch.value(p, q, xs, ys[:j] + ys[j + 1:]), ys[j])


def delta_12_terms(ctx: DeltaContext, coch, p, q, xs, ys):
    """The signed terms of the contribution of the (p,q)-block, p >= 1, to
    the (p-1,q+2)-block, at xs (p-1 even labels) and ys (q+2 odd labels):

      (2/((q+1)(q+2))) sum_{i<j} (-1)^{p+i+j}
                       c(xs, m(yi,yj); ys\\{yi,yj})
    """
    norm = ctx.norm((-1, 2), p, q)
    for i, j in itertools.combinations(range(q + 2), 2):
        rest = ys[:i] + ys[i + 1:j] + ys[j + 1:]
        yield from _through((-1) ** (p + i + j) * norm, ctx.m_alg(ys[i], ys[j]),
                            lambda l: coch.value(p, q, xs + (l,), rest))


_TERMS = {(1, 0): delta10_terms, (0, 1): delta01_terms,
          (-1, 2): delta_12_terms}


def delta_instance(ctx, coch, P, Q, xs, ys):
    """Value of the coboundary at one basis instance of the target block
    (P,Q), the one sum of the terms of its three components."""
    out: dict = {}
    for dp, dq in COMPONENTS:
        p, q = P - dp, Q - dq
        if p < 0 or q < 0:
            continue
        for c, v in _TERMS[(dp, dq)](ctx, coch, p, q, xs, ys):
            for l, d in v.items():
                out[l] = out.get(l, 0) + c * d
    return ctx.mod.vector(out)


def apply_delta(coch: Cochain) -> Cochain:
    """The full coboundary of a finite-structure cochain."""
    return _scattered_delta(coch, COMPONENTS)


def apply_delta_component(coch, comp):
    """One component of the coboundary: of a `Cochain`, the cochain that
    the matrix scatter gives (`_scattered_delta`); of the `_UnitCochains`
    of a basis, added into their rows {column: nonzero int}, one per target
    key, which it returns."""
    if isinstance(coch, _UnitCochains):
        return coch.add_rows(comp)
    return _scattered_delta(coch, (comp,))


def _scattered_delta(coch: Cochain, components) -> Cochain:
    """The chosen components of the coboundary of a finite-structure
    cochain: the integer columns of delta^k at its support keys
    (`_delta_matrix`), each entry kept if its block shift is one of
    ``components``, times the coefficients, each sum divided by the scale."""
    _require_finite(coch)
    coeffs = {(p, q, xs, ys, out): c for p, q in coch.shapes()
              for (xs, ys), vec in coch.block(p, q).items()
              for out, c in vec.items()}
    mat = _delta_matrix(coch.alg, coch.mod, coch.degree,
                        CochainBasis.from_keys(list(coeffs)))
    keys, values = mat.source.keys, list(coeffs.values())
    row: dict = {}
    for i, ((P, Q, *_), entries) in enumerate(zip(mat.target.keys, mat.ints)):
        s = sum(c * values[j] for j, c in entries.items()
                if (P - keys[j][0], Q - keys[j][1]) in components)
        if s:
            row[i] = Fraction(s, mat.scale)
    return mat.target.from_row(row)


def _require_finite(coch: Cochain) -> None:
    """A window cochain has no finite structure (``alg`` is None)."""
    if coch.alg is None:
        raise ValueError(f"this {type(coch).__name__} has no finite structure "
                         "behind it, so no matrix or bracket coboundary")


# ---------------------------------------------------------------------------
# the independent route: alternated adjoint action of m on the semidirect sum
# ---------------------------------------------------------------------------

def delta_via_bracket(coch: Cochain) -> Cochain:
    """Compute the coboundary as Alt [m, c] on the semidirect sum, with the
    bracket engine, then restrict to algebra arguments.

    This shares no formula code with `apply_delta`; agreement of the two is
    the structural consistency check for the operator.
    """
    _require_finite(coch)
    s = semidirect(coch.mod)
    m_bm = s.m_blocks()
    # embed the cochain: extension by zero, with the odd-argument
    # antisymmetry written out entry by entry
    sp = s.space
    blocks: dict = {}
    for (p, q) in coch.shapes():
        entries: dict = {}
        for (xs, ys), vec in coch.block(p, q).items():
            for perm in itertools.permutations(range(q)):
                sign = brackets._perm_sign(perm)
                pys = tuple(ys[t] for t in perm)
                for out, c in vec.items():
                    entries[(xs, pys, out)] = sign * c
        blocks[(p, q)] = MultiMap(sp, p, q, entries)
    phi_bm = brackets.BlockMap(sp, coch.degree, blocks)
    result = brackets.al_bracket_blocks(m_bm, phi_bm)
    # restrict to entries whose arguments all lie in the algebra
    out_blocks: dict = {}
    for (p, q), mm in result.items():
        for (xs, ys, out), c in mm.entries():
            if not all(l in coch.alg.space for l in xs + ys):
                continue
            _require(out in coch.mod.space,
                     "algebra-argument entries must be module-valued")
            if _canonical_ys(coch.alg.space, ys)[0] == ys:  # one per orbit
                table = out_blocks.setdefault((p, q), {})
                table.setdefault((xs, ys), {})[out] = c
    return Cochain(coch.alg, coch.mod, coch.degree + 1, out_blocks)


# ---------------------------------------------------------------------------
# bases and matrices
# ---------------------------------------------------------------------------

def _cochain_keys(k, even, odd, outputs) -> list:
    """The keys (p, q, xs, ys, out) of C^k in basis order: blocks in
    decreasing p, x-tuples of ``even`` in lexicographic order, increasing
    combinations of ``odd``, then each instance's ``outputs(q, xs, ys)``."""
    return [(p, k - p, xs, ys, out) for p in range(k, -1, -1)
            for xs, ys in itertools.product(itertools.product(even, repeat=p),
                                            itertools.combinations(odd, k - p))
            for out in outputs(k - p, xs, ys)]


class CochainBasis:
    """The ordered basis of C^k, in the order of `_cochain_keys`, with
    output labels in module order.  ``even`` and ``odd`` are the labels the
    scatter may put into its keys (`_UnitCochains`): all of the algebra's,
    since every key a push forms from them is a key of the full C^k."""

    def __init__(self, alg: AntialgebraStructure, mod: ModuleStructure,
                 degree: int):
        if degree < 1:
            raise ValueError("cochain bases start at degree 1")
        self.alg, self.mod, self.degree = alg, mod, degree
        self.even, self.odd = alg.space.even, alg.space.odd
        outs = (mod.space.even, mod.space.odd)
        self._fill(_cochain_keys(degree, self.even, self.odd,
                                 lambda q, xs, ys: outs[q % 2]))

    @classmethod
    def from_keys(cls, keys: list) -> "CochainBasis":
        """The basis of any key list, in its order (`zoo`'s weight slices),
        with the labels that its keys carry, in order of first appearance.
        No structure is behind it: ``alg``, ``mod`` and ``degree`` are None."""
        basis = cls.__new__(cls)
        basis.alg = basis.mod = basis.degree = None
        basis.even, basis.odd = (
            list(dict.fromkeys(l for key in keys for l in key[i]))
            for i in (2, 3))
        basis._fill(keys)
        return basis

    def _fill(self, keys: list) -> None:
        """The keys, indexed."""
        self.keys = keys
        self._index = dict(zip(keys, itertools.count()))

    @functools.cached_property
    def instances(self) -> dict:
        """The argument tuples (xs, ys) of each block (p, q) that has a
        key, in order of first appearance; no matrix build reads them."""
        blocks: dict = {}
        for p, q, xs, ys, _ in self.keys:
            blocks.setdefault((p, q), {})[xs, ys] = None
        return {pq: list(block) for pq, block in blocks.items()}

    @property
    def dim(self) -> int:
        return len(self.keys)

    def index(self, key) -> int:
        return self._index[key]

    def unit(self, key) -> Cochain:
        p, q, xs, ys, out = key
        vec = Vector.basis(self.mod.space, out)
        return Cochain(self.alg, self.mod, self.degree,
                       {(p, q): {(xs, ys): vec}})

    def coeff_vector(self, coch: Cochain) -> list:
        """Dense coordinates of ``coch``, one per basis key (the benchmark's
        reference reads them by index): `solve_coboundary`'s right-hand side."""
        vec = [Fraction(0)] * self.dim
        for (p, q) in coch.shapes():
            for (xs, ys), val in coch.block(p, q).items():
                for out, c in val.items():
                    vec[self._index[(p, q, xs, ys, out)]] = c
        return vec

    def from_row(self, row: dict) -> Cochain:
        """The cochain whose coordinates are the `linalg` row ``row``."""
        blocks: dict = {}
        for i, c in sorted(row.items()):
            p, q, xs, ys, out = self.keys[i]
            blocks.setdefault((p, q), {}).setdefault((xs, ys), {})[out] = c
        return Cochain(self.alg, self.mod, self.degree, blocks)


class DifferentialMatrix:
    """delta^k : C^k -> C^{k+1}, held once on integers: ``ints`` is S_k
    times it over its scale S_k = ``scale``, one dict {column: nonzero int}
    per key of ``target``, the `CochainBasis` of C^{k+1} or a weight slice
    of it (``source`` likewise for C^k).  Rank and kernel are taken on
    ``ints``, which has the row space of delta^k, and so are the solves,
    against S_k times their right-hand sides.  `full`, delta^k's own
    `Fraction` rows, is built on first read, by tests and the benchmark
    alone."""

    def __init__(self, k, source: CochainBasis, target: CochainBasis,
                 ints: list, scale: int):
        self.k, self.source, self.target = k, source, target
        self.ints, self.scale = ints, scale

    @functools.cached_property
    def full(self) -> list:
        return [divided(row, self.scale) for row in self.ints]

    def __repr__(self):
        return (f"DifferentialMatrix(k={self.k}, "
                f"{len(self.target.keys)}x{len(self.source.keys)})")


class _UnitCochains:
    """The unit cochains of the source keys (p, q, xs, ys, l) of delta^k
    (``degree`` k), all at once, in the integer `DeltaContext` of
    `_delta_between`: what `apply_delta_component` scatters into ``rows``,
    one sparse row
    {source column: nonzero int} per target key.  It is no `Cochain`; it
    reads the tables of the scatter, over the labels that the target basis
    supplies (``even`` and ``odd``; a term through any other label meets
    no target key).  A product a.b = z is one of the context's weighted
    products `m_alg`, inverted by output: even.even, even.odd and odd pairs
    a < b.  x.l and y.l are its weighted actions `m_x_val` and `m_val_y` on
    each source output label l.  The context alone decides which scalar
    weighs which product, and keeps the tables (``ctx.tables``), so that
    every degree of a complex, all in its one context, reads the same
    ones."""

    def __init__(self, ctx, k, source, target):
        self.degree, self.keys, self._unit = k, source.keys, ctx.unit(k)
        self._norm = functools.cache(ctx.norm)  # one call per source block
        self._index = target._index
        self.rows: list = [{} for _ in target.keys]
        labels = even, odd = tuple(target.even), tuple(target.odd)
        if labels not in ctx.tables:
            ctx.tables[labels] = self._inverted(ctx, even, odd)
        self._rank, self._ee, self._eo, self._oo, self._actions = (
            ctx.tables[labels])
        # module label -> ([(even actor, o, weighted int)], [(odd actor, ..)])
        for l in dict.fromkeys(key[4] for key in self.keys):
            if l not in self._actions:
                self._actions[l] = (
                    [(x, o, c) for x in even
                     for o, c in ctx.m_x_val(x, {l: 1}).items()],
                    [(y, o, c) for y in odd
                     for o, c in ctx.m_val_y({l: 1}, y).items()])
        # the ranks of each key's ys, increasing
        self._at = [[ctx.alg.index(y) for y in key[3]] for key in self.keys]

    @staticmethod
    def _inverted(ctx, even, odd) -> tuple:
        """(ranks of the odd labels, the three product tables output ->
        [(a, b, weighted int)], an empty action table): the scatter's
        tables of one context, which `__init__` fills with the actions on
        each source output label as it meets them."""
        rank = {y: ctx.alg.index(y) for y in odd}
        ee, eo, oo = {}, {}, {}
        for table, lefts, rights in ((ee, even, even), (eo, even, odd),
                                     (oo, odd, odd)):
            for a in lefts:
                for b in rights:
                    if table is not oo or rank[a] < rank[b]:
                        for z, c in ctx.m_alg(a, b).items():
                            table.setdefault(z, []).append((a, b, c))
        return rank, ee, eo, oo, {}

    def add_rows(self, comp) -> list:
        """Add component ``comp`` of delta of each unit cochain into
        ``rows``, which it returns.  A formed key must be a target key
        (KeyError otherwise); an entry whose terms sum to zero is dropped."""
        push, index, rows = self._PUSH[comp], self._index, self.rows
        for j, (key, at) in enumerate(zip(self.keys, self._at)):
            for target, c in push(self, *key, at):
                row = rows[index[target]]
                if (s := row.get(j, 0) + c):
                    row[j] = s
                else:
                    del row[j]
        return rows

    # Each push transposes the pull terms of one component: a line below
    # pairs a pull term with the target keys it reaches from (p, q, xs, ys, l).
    #
    #   delta10_terms
    #     - m(x0, c(x1..; ys))           x.l, x prepended to xs
    #     (-1)^p m(c(x0..), xp), q = 0   x.l, x appended to xs
    #     c(.., m(xi, x_{i+1}), ..)      even a.b = xs[i], which a, b replace
    #     c(..; m(xp, yj), ys\yj)        mixed x.y = ys[r], sign (-1)^r: ys[r]
    #                                    out, x appended to xs, y inserted
    #                                    into ys at its place j
    #   delta01_terms
    #     m(c(xs; ys\yj), yj)            y.l, y inserted into ys at j
    #   delta_12_terms
    #     c(xs, m(yi, yj); ..)           odd a < b, a.b = xs[-1]: xs[-1] out,
    #                                    a, b inserted into ys at i < j

    def _push10(self, p, q, xs, ys, l, at):
        u, n10 = self._unit, q and self._norm((1, 0), p, q)
        rank, terms = self._rank, []
        for x, o, c in self._actions[l][0]:  # the action at the first slot
            terms.append(((p + 1, q, (x,) + xs, ys, o), -u * c))
            if q == 0:  # and at the last
                terms.append(((p + 1, 0, xs + (x,), (), o),
                              (-1) ** p * u * c))
        for i, z in enumerate(xs):  # an even product into slot i
            for a, b, c in self._ee.get(z, ()):
                terms.append(((p + 1, q, xs[:i] + (a, b) + xs[i + 1:], ys, l),
                              (-1) ** i * u * c))
        for r, z in enumerate(ys):  # a mixed product out of ys
            rest, at_rest = ys[:r] + ys[r + 1:], at[:r] + at[r + 1:]
            for x, y, c in self._eo.get(z, ()):
                i = bisect.bisect_left(at_rest, rank[y])
                if at_rest[i:i + 1] != [rank[y]]:
                    terms.append(((p + 1, q, xs + (x,),
                                   rest[:i] + (y,) + rest[i:], l),
                                  (-1) ** (p + i + r) * n10 * c))
        return terms

    def _push01(self, p, q, xs, ys, l, at):
        n01 = self._norm((0, 1), p, q)
        rank, terms = self._rank, []
        for y, o, c in self._actions[l][1]:  # the odd action, y inserted
            i = bisect.bisect_left(at, rank[y])
            if at[i:i + 1] != [rank[y]]:
                terms.append(((p, q + 1, xs, ys[:i] + (y,) + ys[i:], o),
                              (-1) ** (p + i) * n01 * c))
        return terms

    def _push_12(self, p, q, xs, ys, l, at):
        n12 = p and self._norm((-1, 2), p, q)
        rank, terms = self._rank, []
        for a, b, c in self._oo.get(xs[-1], ()) if p else ():
            i = bisect.bisect_left(at, rank[a])
            jb = bisect.bisect_left(at, rank[b])
            if at[i:i + 1] != [rank[a]] and at[jb:jb + 1] != [rank[b]]:
                terms.append(((p - 1, q + 2, xs[:-1],
                               ys[:i] + (a,) + ys[i:jb] + (b,) + ys[jb:], l),
                              (-1) ** (p + i + jb + 1) * n12 * c))
        return terms

    _PUSH = {(1, 0): _push10, (0, 1): _push01, (-1, 2): _push_12}


def _delta_between(ctx, k, source, target):
    """delta^k between the `CochainBasis`es ``source`` of C^k and
    ``target`` of C^{k+1}, of a finite structure or of any key lists
    (`CochainBasis.from_keys`), in the integer `DeltaContext` ``ctx``,
    whose scale S_k = ``ctx.scale(k)`` makes S_k*delta^k an integer
    matrix.  Column j of a component is that component applied to the j-th
    unit cochain, each source key scattered through the transpose of the
    component's pull terms (`_UnitCochains`) and added straight into the
    rows; an entry's blocks fix its one component, so no two components
    write the same entry.  The rows are filled by `apply_delta_component`,
    one call per component, because the benchmark's per-degree assembly
    spans wrap that name."""
    units = _UnitCochains(ctx, k, source, target)
    for component in COMPONENTS:
        apply_delta_component(units, component)
    return DifferentialMatrix(k, source, target, units.rows, ctx.scale(k))


def _cleared_context(alg, mod) -> DeltaContext:
    """The integer `DeltaContext` of a finite structure's products and
    action cleared of their common denominator D, the context's
    ``denominator``.  A complex builds it once, for all its degrees."""
    tables = (alg.products, mod.action)
    d = common_denominator(c for t in tables for v in t.values()
                           for c in v.values())
    mul, rho = ({ab: as_integers(v.items(), d) for ab, v in t.items()}
                for t in tables)
    return DeltaContext(alg.space, mod.space,
                        lambda a, b: mul.get((a, b), {}),
                        lambda a, l: rho.get((a, l), {}), denominator=d)


def _delta_matrix(alg, mod, k, source=None, ctx=None) -> DifferentialMatrix:
    """delta^k of a finite structure between its `CochainBasis`es, by
    `_delta_between` in its `_cleared_context`.  ``source`` is the basis
    of C^k and ``ctx`` that context when the caller has them already."""
    return _delta_between(ctx or _cleared_context(alg, mod), k,
                          source or CochainBasis(alg, mod, k),
                          CochainBasis(alg, mod, k + 1))


def assemble_complex(alg, mod, kmax, verify=True) -> list:
    """Matrices of delta^k for k = 1..kmax.  With ``verify`` the square-zero
    law is asserted exactly, degree by degree: as soon as delta^k is built,
    `verify_complex` checks it against delta^{k-1}, and delta^{k+1} is
    built only if that pair passes.  A failing complex raises at its first
    failing pair, with no larger matrix assembled.  Every degree is built
    in one `_cleared_context`, so on one set of the scatter's tables."""
    mats, source, ctx = [], None, _cleared_context(alg, mod)
    for k in range(1, kmax + 1):  # delta^k's target is delta^{k+1}'s source
        mats.append(_delta_matrix(alg, mod, k, source, ctx))
        source = mats[-1].target
        if verify:
            verify_complex(mats[-2:], trivial=not mod.action)
    return mats


def _require(ok, message) -> None:
    """A mathematical check that survives ``python -O``."""
    if not ok:
        raise AssertionError(message)


# the groups of component composites in delta^{k+1} delta^k, by shift P - p
_SQUARE_GROUPS = ((2, "d10.d10"), (1, "d10.d01+d01.d10"),
                  (0, "d01.d01+d10.d-12+d-12.d10"),
                  (-1, "d01.d-12+d-12.d01"), (-2, "d-12.d-12"))


def _shifts(rows, target: CochainBasis, source: CochainBasis) -> set:
    """{P - p} over the nonzero entries of ``rows``, from the source block
    (p, q) of the entry's column to the target block (P, Q) of its row."""
    return {target.keys[i][0] - source.keys[j][0]
            for i, row in enumerate(rows) for j in row}


def verify_complex(mats, trivial=False) -> None:
    """delta^{k+1} delta^k = 0 for each consecutive pair of ``mats``, from
    one integer product per pair, S_{k+1}*S_k times the square: its entries
    of one shift are exactly those of one group, and a failure names the
    first failing pair and its first nonzero group.  With trivial
    coefficients no entry of a matrix may have shift 0, which is its
    (0,1)-component; within one call every matrix of ``mats`` is checked
    for that before any pair.  `assemble_complex` calls it on each new pair
    (delta^{k-1}, delta^k) as it builds the complex, so there the order is
    degree by degree and an interior delta^k is checked for shift 0 twice."""
    if trivial:
        for mat in mats:
            _require(0 not in _shifts(mat.ints, mat.target, mat.source),
                     "trivial coefficients must kill the (0,1)-component")
    for cur, nxt in zip(mats, mats[1:]):
        shifts = _shifts(linalg.mat_mul(nxt.ints, cur.ints), nxt.target,
                         cur.source)
        name = next((n for dp, n in _SQUARE_GROUPS if dp in shifts), None)
        _require(name is None,
                 f"delta^{nxt.k} after delta^{cur.k} is nonzero ({name})")


def cohomology_dims(alg, mod, kmax) -> list:
    """[(k, dim C^k, rank delta^k, dim H^k)] for k = 1..kmax.

    H^1 is the full kernel of delta^1 (the complex starts at C^1)."""
    out, prev_rank = [], 0
    for mat in assemble_complex(alg, mod, kmax):
        r = linalg.rank(mat.ints)
        out.append((mat.k, mat.source.dim, r, mat.source.dim - r - prev_rank))
        prev_rank = r
    return out


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def derivation_space(alg: AntialgebraStructure, mod: ModuleStructure) -> dict:
    """Parity-preserving module-valued derivations:

      c(u.v) = rho_u c(v) + (-1)^{|u||v|} rho_v c(u)

    over all ordered basis pairs.  Returns the solution space as 1-cochains
    plus the canonical (RREF) coefficient matrix of the space.
    """
    basis = CochainBasis(alg, mod, 1)
    rows = []
    sp = alg.space
    for u, v in itertools.product(sp.labels(), repeat=2):
        sign = Fraction(-1) ** (sp.parity(u) * sp.parity(v))
        residuals = [_derivation_residual(alg, mod, basis.unit(key), u, v,
                                          sign) for key in basis.keys]
        for out in mod.space.labels():
            rows.append({j: c for j, res in enumerate(residuals)
                         if (c := res.coeff(out))})
    return _solution_space(rows, basis)


def _solution_space(rows, basis: CochainBasis) -> dict:
    kernel = linalg.nullspace(rows, basis.dim)
    rref_mat, _ = linalg.rref(kernel)
    return {
        "basis": [basis.from_row(v) for v in kernel],
        "coeff_basis": kernel,
        "rref": rref_mat,
        "cochain_basis": basis,
    }


def _derivation_residual(alg, mod, c: Cochain, u, v, sign) -> Vector:
    def c_of(l):
        # the 1-cochain at a basis label, block by parity
        if alg.space.parity(l) == 0:
            return c.value(1, 0, (l,), ())
        return c.value(0, 1, (), (l,))
    res = Vector.zero(mod.space)
    for l, co in alg.mul(u, v).items():
        res = res.add(c_of(l).scale(co))
    res = res.sub(mod.act_vec(Vector.basis(alg.space, u), c_of(v)))
    res = res.sub(mod.act_vec(Vector.basis(alg.space, v), c_of(u)).scale(sign))
    return res


def kernel_of_delta1(alg, mod) -> dict:
    """ker delta^1 in the same canonical form as `derivation_space`."""
    mat = _delta_matrix(alg, mod, 1)
    return _solution_space(mat.ints, mat.source)


# ---------------------------------------------------------------------------
# extensions by 2-cocycles
# ---------------------------------------------------------------------------

def extension_from_cocycle(coch: Cochain, name: str = "") -> tuple:
    """The abelian extension attached to a 2-cochain c:

      (a, b) . (a', b') = (a.a', rho_a b' + (-1)^{|a'||b|} rho_{a'} b
                                  + c(a, a'))

    Returns (structure, validity report); the report collects every
    identity violation of the extended product table.  Validity is close
    to, but not identical with, closedness of c: per instance the
    coboundary value differs from the corresponding residual by terms that
    feed the even-even block of c through the action (so the two kernels
    agree except across that block).  The even-even block of c must be
    symmetric, otherwise the product cannot be graded-commutative.
    """
    if coch.degree != 2:
        raise ValueError("extensions need a 2-cochain")
    alg, mod = coch.alg, coch.mod
    for (xs, ys), vec in coch.block(2, 0).items():
        if coch.value(2, 0, (xs[1], xs[0]), ()) != vec:
            raise ValueError("the even-even block of the cocycle must be "
                             "symmetric")
    base = semidirect(mod, name=name or "extension")
    products = base.product_map()
    sp = alg.space
    for a, b in itertools.product(sp.labels(), repeat=2):
        # c at (a, b): mixed pairs read the (1,1) block in the (x, y) order,
        # so they are symmetric; zero sums are dropped by the structure
        xs, ys = ([l for l in (a, b) if sp.parity(l) == i] for i in (0, 1))
        tbl = products.setdefault((a, b), {})
        for l, c in coch.value(len(xs), len(ys), xs, ys).items():
            tbl[l] = tbl.get(l, 0) + c
    structure = AntialgebraStructure(base.space, products,
                                     name=name or "extension")
    report = check_axioms(structure.space, structure.products,
                          title=f"extension[{structure.name}]")
    return structure, report


def solve_coboundary(coch: Cochain):
    """A cochain L with delta L = coch, or None if there is none, solved on
    the integer rows S*delta against S*coch."""
    _require_finite(coch)
    if coch.degree == 1:
        return None  # C^0 is empty: only the zero 1-cochain is a coboundary
    mat = _delta_matrix(coch.alg, coch.mod, coch.degree - 1)
    rhs = [mat.scale * c for c in mat.target.coeff_vector(coch)]
    sol = linalg.solve(mat.ints, rhs, mat.source.dim)
    if sol is None:
        return None
    return mat.source.from_row(sol)


def random_cochain(alg, mod, degree, rng, density=0.5, bound=9) -> Cochain:
    """A random cochain with exact small-rational coefficients."""
    basis = CochainBasis(alg, mod, degree)
    row = {}
    for i in range(basis.dim):
        if rng.random() < density:
            num = rng.randint(-bound, bound)
            den = rng.randint(1, 4)
            if num:
                row[i] = Fraction(num, den)
    return basis.from_row(row)
