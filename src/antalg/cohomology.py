"""The coboundary operator on parity-preserving cochains, its exact matrix
model, derivation spaces, and abelian extensions from 2-cocycles.

A k-cochain with coefficients in a module B is a sum of (p,q)-blocks,
p + q = k, each a map V0^p x V1^q -> B that is antisymmetric in the odd
arguments and valued in the module component of parity q (mod 2).  The
coboundary has three components moving a block (p,q) to (p+1,q), (p,q+1)
and (p-1,q+2).  Each instance formula is written once, verbatim, as a
generator of signed terms (`delta10_terms`, `delta01_terms`,
`delta_12_terms`); `delta_instance` is the one place that sums them.  A
cochain is only read at basis labels (`Cochain.value`): where a formula
feeds it a product, the product's labels give one term each.

Products or action values that are unknown (None) -- which happens for
truncated windows of infinite-dimensional algebras -- propagate to None
results, so callers can skip exactly the undecidable instances.
"""

from __future__ import annotations

import copy
import functools
import itertools
from fractions import Fraction

from . import brackets, linalg
from .antialgebra import (AntialgebraStructure, ModuleStructure,
                          check_axioms, semidirect)
from .core import GradedSpace, MultiMap, Vector

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
ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


class DeltaContext:
    """Multiplication data entering the coboundary formulas.

    ``alg`` and ``mod`` are bases of the algebra and the module: they answer
    ``parity(label)`` and ``index(label)`` (the canonical order of odd
    labels), and ``mod`` builds module values with ``vector(coeffs)``.
    ``mul(a, b)`` and ``act(a, l)`` return {label: coeff} mappings, or
    None for a value that a truncated window cannot decide; None
    propagates through the three methods, which return {label: coeff}
    mappings too (callers must not mutate them):

      m_alg(a, b)      the distinguished odd element on algebra labels:
                       half the product on even-even pairs, the product
                       otherwise.
      m_x_val(x, v)    product of an even algebra label with a module
                       value: half the action on the even module component,
                       the action on the odd one.
      m_val_y(v, y)    product of a module value with an odd algebra
                       label: the action on the even component, minus the
                       action on the odd one.
    """

    def __init__(self, alg, mod, mul, act):
        self.alg = alg
        self.mod = mod
        self.mul = mul
        self.act = act

    def m_alg(self, a, b):
        v = self.mul(a, b)
        if v is not None and self.alg.parity(a) == 0 == self.alg.parity(b):
            return {l: c * HALF for l, c in v.items()}
        return v

    def _act_weighted(self, a, v, w0, w1):
        if v is None:
            return None
        parity = self.mod.parity
        out: dict = {}
        for l, c in v.items():
            acted = self.act(a, l)
            if acted is None:
                return None
            wc = (w0 if parity(l) == 0 else w1) * c
            for k, d in acted.items():
                out[k] = out.get(k, 0) + wc * d
        return out

    def m_x_val(self, x, v):
        return self._act_weighted(x, v, HALF, ONE)

    def m_val_y(self, v, y):
        return self._act_weighted(y, v, ONE, -ONE)


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

def _canonical_ys(space, ys):
    """Sort odd labels into the basis order; returns (sorted tuple, sign) or
    (None, 0) when a label repeats."""
    idx = [space.index(y) for y in ys]
    if len(set(idx)) != len(idx):
        return None, 0
    order = sorted(range(len(ys)), key=lambda t: idx[t])
    sign = brackets._perm_sign(tuple(order))
    return tuple(ys[t] for t in order), sign


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
    (coeff * d, value_at(l)) per label, or one unknown term if m is None."""
    if prod is None:
        yield coeff, None
        return
    for l, d in prod.items():
        yield coeff * d, value_at(l)


def delta10_terms(ctx: DeltaContext, coch, p, q, xs, ys):
    """The signed terms (coefficient, module value or None) of the
    contribution of the (p,q)-block to the (p+1,q)-block of the coboundary,
    evaluated at xs (p+1 even labels) and ys (q odd labels):

      - m(x0, c(x1..xp; ys))
      + sum_i (-1)^i c(x0.., m(xi,x_{i+1}), ..xp; ys)
      + (-1)^p m(c(x0..x_{p-1}), xp)                        if q = 0
      + (1/q) sum_j (-1)^{p+j} c(x0..x_{p-1}; m(xp,yj), ys\\yj)   if q > 0
    """
    yield -1, ctx.m_x_val(xs[0], coch.value(p, q, xs[1:], ys))
    for i in range(p):
        yield from _through((-1) ** i, ctx.m_alg(xs[i], xs[i + 1]), lambda l:
                            coch.value(p, q, xs[:i] + (l,) + xs[i + 2:], ys))
    if q == 0:
        yield (-1) ** p, ctx.m_x_val(xs[p], coch.value(p, q, xs[:p], ()))
    for j in range(q):
        yield from _through(
            (-1) ** (p + j) * Fraction(1, q), ctx.m_alg(xs[p], ys[j]),
            lambda l: coch.value(p, q, xs[:p], (l,) + ys[:j] + ys[j + 1:]))


def delta01_terms(ctx: DeltaContext, coch, p, q, xs, ys):
    """The signed terms of the contribution of the (p,q)-block to the
    (p,q+1)-block, at xs (p even labels) and ys (q+1 odd labels):

      (2/(q+1)) sum_j (-1)^j     m(c(ys\\yj), yj)        if p = 0, q odd
      (1/(q+1)) sum_j (-1)^{p+j} m(c(xs; ys\\yj), yj)    otherwise
    """
    norm = Fraction(2 if p == 0 and q % 2 == 1 else 1, q + 1)
    for j in range(q + 1):
        yield (-1) ** (p + j) * norm, ctx.m_val_y(
            coch.value(p, q, xs, ys[:j] + ys[j + 1:]), ys[j])


def delta_12_terms(ctx: DeltaContext, coch, p, q, xs, ys):
    """The signed terms of the contribution of the (p,q)-block, p >= 1, to
    the (p-1,q+2)-block, at xs (p-1 even labels) and ys (q+2 odd labels):

      (2/((q+1)(q+2))) sum_{i<j} (-1)^{p+i+j}
                       c(xs, m(yi,yj); ys\\{yi,yj})
    """
    norm = Fraction(2, (q + 1) * (q + 2))
    for i, j in itertools.combinations(range(q + 2), 2):
        rest = ys[:i] + ys[i + 1:j] + ys[j + 1:]
        yield from _through((-1) ** (p + i + j) * norm, ctx.m_alg(ys[i], ys[j]),
                            lambda l: coch.value(p, q, xs + (l,), rest))


_TERMS = {(1, 0): delta10_terms, (0, 1): delta01_terms,
          (-1, 2): delta_12_terms}


def delta_instance(ctx, coch, P, Q, xs, ys, components=COMPONENTS):
    """Value of the chosen components of the coboundary at one basis
    instance of the target block (P,Q), the one sum of their terms; None at
    the first unknown term, whose successors are not evaluated."""
    out: dict = {}
    for dp, dq in components:
        p, q = P - dp, Q - dq
        if p < 0 or q < 0:
            continue
        for c, v in _TERMS[(dp, dq)](ctx, coch, p, q, xs, ys):
            if v is None:
                return None
            for l, d in v.items():
                out[l] = out.get(l, ZERO) + c * d
    return ctx.mod.vector(out)


def _target_shapes(degree: int, dim1: int):
    return [(p, degree - p) for p in range(degree, -1, -1)
            if degree - p <= dim1]


def apply_delta(coch: Cochain) -> Cochain:
    """The full coboundary of a finite-structure cochain."""
    return _materialise_delta(coch, COMPONENTS)


def apply_delta_component(coch: Cochain, comp) -> Cochain:
    return _materialise_delta(coch, (comp,))


def _materialise_delta(coch, components) -> Cochain:
    """The chosen components of the coboundary of a finite-structure
    cochain; its module may be the column-tagged one of `_delta_matrix`."""
    sp = coch.alg.space
    products = coch.alg.products
    ctx = DeltaContext(sp, coch.mod.space,
                       lambda a, b: products.get((a, b), {}), coch.mod.act)
    degree = coch.degree + 1
    blocks: dict = {}
    for (P, Q) in _target_shapes(degree, sp.dim1):
        table = {}
        for xs in itertools.product(sp.even, repeat=P):
            for ys in itertools.combinations(sp.odd, Q):
                v = delta_instance(ctx, coch, P, Q, xs, ys, components)
                _require(v is not None, "finite structures cannot be unknown")
                if not v.is_zero():
                    table[(xs, ys)] = v
        if table:
            blocks[(P, Q)] = table
    return Cochain(coch.alg, coch.mod, degree, blocks)


# ---------------------------------------------------------------------------
# the independent route: alternated adjoint action of m on the semidirect sum
# ---------------------------------------------------------------------------

def delta_via_bracket(coch: Cochain) -> Cochain:
    """Compute the coboundary as Alt [m, c] on the semidirect sum, with the
    bracket engine, then restrict to algebra arguments.

    This shares no formula code with `apply_delta`; agreement of the two is
    the structural consistency check for the operator.
    """
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
        if entries:
            blocks[(p, q)] = MultiMap(sp, p, q, entries)
    phi_bm = brackets.BlockMap(sp, coch.degree, blocks)
    result = brackets.al_bracket_blocks(m_bm, phi_bm)
    # restrict to entries whose arguments all lie in the algebra
    alg_labels = set(coch.alg.space.labels())
    mod_labels = set(coch.mod.space.labels())
    degree = coch.degree + 1
    out_blocks: dict = {}
    for (p, q), mm in result.items():
        table: dict = {}
        for (xs, ys, out), c in mm.entries():
            if not all(l in alg_labels for l in xs + ys):
                continue
            _require(out in mod_labels,
                     "algebra-argument entries must be module-valued")
            cys, sign = _canonical_ys(coch.alg.space, ys)
            if cys != ys:
                continue  # keep one representative per orbit
            key = (xs, ys)
            prev = table.get(key, {})
            prev[out] = prev.get(out, Fraction(0)) + c
            table[key] = prev
        cleaned = {k: Vector(coch.mod.space, v) for k, v in table.items()}
        cleaned = {k: v for k, v in cleaned.items() if not v.is_zero()}
        if cleaned:
            out_blocks[(p, q)] = cleaned
    return Cochain(coch.alg, coch.mod, degree, out_blocks)


# ---------------------------------------------------------------------------
# bases and matrices
# ---------------------------------------------------------------------------

class CochainBasis:
    """The ordered basis of C^k: blocks in decreasing p, x-tuples in
    lexicographic basis order, odd tuples as increasing combinations, output
    labels in module order."""

    def __init__(self, alg: AntialgebraStructure, mod: ModuleStructure,
                 degree: int):
        if degree < 1:
            raise ValueError("cochain bases start at degree 1")
        self.alg = alg
        self.mod = mod
        self.degree = degree
        self.keys = []  # (p, q, xs, ys, out)
        sp = alg.space
        for (p, q) in _target_shapes(degree, sp.dim1):
            outs = mod.space.even if q % 2 == 0 else mod.space.odd
            for xs in itertools.product(sp.even, repeat=p):
                for ys in itertools.combinations(sp.odd, q):
                    for out in outs:
                        self.keys.append((p, q, xs, ys, out))
        self._index = {k: i for i, k in enumerate(self.keys)}

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
    """delta^k : C^k -> C^{k+1} with its three component matrices, which
    `_delta_matrix` reads off delta of the generic k-cochain.  Every matrix
    is a list of `linalg` rows, one dict {column: nonzero coefficient} per
    basis key of C^{k+1}; `full` is the sum of the components."""

    def __init__(self, k, source: CochainBasis, target: CochainBasis,
                 comp: dict):
        self.k = k
        self.source = source
        self.target = target
        self.comp = comp
        self.full = functools.reduce(linalg.mat_add, comp.values())

    def __repr__(self):
        return (f"DifferentialMatrix(k={self.k}, "
                f"{self.target.dim}x{self.source.dim})")


class _ColumnTagged:
    """The coefficient module tensored with k^n: labels (j, l) for a column
    j < n and a module label l, graded by l.  The algebra acts through the
    module and carries j along, so a cochain valued here is n cochains at
    once, one per column."""

    def __init__(self, mod: ModuleStructure, n: int):
        self.mod = mod
        self.space = GradedSpace(
            [(j, l) for j in range(n) for l in mod.space.even],
            [(j, l) for j in range(n) for l in mod.space.odd])

    def act(self, a, label) -> dict:
        j, l = label
        return {(j, out): c for out, c in self.mod.act(a, l).items()}


def _delta_matrix(alg, mod, k) -> DifferentialMatrix:
    """delta^k as delta of the generic k-cochain: the one whose entry at
    (xs, ys) is the sum over outputs l of the tag (j, l), j the column of
    the source key (p, q, xs, ys, l).  Column j of a component matrix is
    the component applied to the j-th unit cochain, so it is read off the
    tag-j part of one coboundary per component."""
    source = CochainBasis(alg, mod, k)
    target = CochainBasis(alg, mod, k + 1)
    tagged = _ColumnTagged(mod, source.dim)
    blocks: dict = {}
    for j, (p, q, xs, ys, out) in enumerate(source.keys):
        blocks.setdefault((p, q), {}).setdefault((xs, ys), {})[(j, out)] = 1
    generic = Cochain(alg, tagged, k, blocks)
    comp = {}
    for component in COMPONENTS:
        image = apply_delta_component(generic, component)
        rows = [{} for _ in range(target.dim)]
        for (P, Q) in image.shapes():
            for (xs, ys), val in image.block(P, Q).items():
                for (j, out), c in val.items():
                    rows[target.index((P, Q, xs, ys, out))][j] = c
        comp[component] = rows
    return DifferentialMatrix(k, source, target, comp)


def assemble_complex(alg, mod, kmax, verify=True) -> list:
    """Matrices of delta^k for k = 1..kmax.  With ``verify`` the square-zero
    law is asserted exactly (`verify_complex`)."""
    mats = [_delta_matrix(alg, mod, k) for k in range(1, kmax + 1)]
    if verify:
        verify_complex(mats, trivial=not mod.action)
    return mats


def _require(ok, message) -> None:
    """A mathematical check that survives ``python -O``."""
    if not ok:
        raise AssertionError(message)


def _square_groups(cur, nxt):
    """delta^{k+1} delta^k as its five groups of component products, one per
    block shift from (2,0) to (-2,4), each built when it is reached: the
    square is zero exactly when each group is."""
    mul, add = linalg.mat_mul, linalg.mat_add
    d10a, d01a, dm12a = (cur.comp[c] for c in COMPONENTS)
    d10b, d01b, dm12b = (nxt.comp[c] for c in COMPONENTS)
    yield "d10.d10", mul(d10b, d10a)
    yield "d10.d01+d01.d10", add(mul(d10b, d01a), mul(d01b, d10a))
    yield ("d01.d01+d10.d-12+d-12.d10",
           add(add(mul(d01b, d01a), mul(d10b, dm12a)), mul(dm12b, d10a)))
    yield "d01.d-12+d-12.d01", add(mul(d01b, dm12a), mul(dm12b, d01a))
    yield "d-12.d-12", mul(dm12b, dm12a)


def verify_complex(mats, trivial=False) -> None:
    """delta^{k+1} delta^k = 0 for consecutive matrices, group by group
    (`_square_groups`).  With trivial coefficients the (0,1)-component of
    every matrix must vanish."""
    if trivial:
        for mat in mats:
            _require(linalg.mat_is_zero(mat.comp[(0, 1)]),
                     "trivial coefficients must kill the (0,1)-component")
    for cur, nxt in zip(mats, mats[1:]):
        for name, mat in _square_groups(cur, nxt):
            _require(linalg.mat_is_zero(mat),
                     f"delta^{nxt.k} after delta^{cur.k} is nonzero ({name})")


def cohomology_dims(alg, mod, kmax) -> list:
    """[(k, dim C^k, rank delta^k, dim H^k)] for k = 1..kmax.

    H^1 is the full kernel of delta^1 (the complex starts at C^1)."""
    mats = assemble_complex(alg, mod, kmax)
    out = []
    prev_rank = 0
    for mat in mats:
        dim = mat.source.dim
        r = linalg.rank(mat.full)
        h = (dim - r) - prev_rank
        out.append((mat.k, dim, r, h))
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
    for u in sp.labels():
        for v in sp.labels():
            pu, pv = sp.parity(u), sp.parity(v)
            sign = Fraction(-1) ** (pu * pv)
            residuals = [_derivation_residual(alg, mod, basis.unit(key), u, v,
                                              sign) for key in basis.keys]
            for out in mod.space.labels():
                rows.append({j: c for j, res in enumerate(residuals)
                             if (c := res.coeff(out))})
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
    kernel = linalg.nullspace(mat.full, mat.source.dim)
    rref_mat, _ = linalg.rref(kernel)
    return {
        "basis": [mat.source.from_row(v) for v in kernel],
        "coeff_basis": kernel,
        "rref": rref_mat,
        "cochain_basis": mat.source,
    }


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

    def correct(a, b, vec: Vector):
        if vec.is_zero():
            return
        tbl = products.setdefault((a, b), {})
        for l, c in vec.items():
            tbl[l] = tbl.get(l, Fraction(0)) + c
            if not tbl[l]:
                del tbl[l]

    sp = alg.space
    for x1 in sp.even:
        for x2 in sp.even:
            correct(x1, x2, coch.value(2, 0, (x1, x2), ()))
    for x in sp.even:
        for y in sp.odd:
            v = coch.value(1, 1, (x,), (y,))
            correct(x, y, v)
            correct(y, x, v)  # mixed pairs are symmetric
    for y1 in sp.odd:
        for y2 in sp.odd:
            correct(y1, y2, coch.value(0, 2, (), (y1, y2)))
    products = {k: v for k, v in products.items() if v}
    structure = AntialgebraStructure(base.space, products,
                                     name=name or "extension")
    report = check_axioms(structure.space, structure.product_map(),
                          title=f"extension[{structure.name}]")
    return structure, report


def solve_coboundary(coch: Cochain):
    """A cochain L with delta L = coch, or None if there is none."""
    if coch.degree == 1:
        return None  # C^0 is empty: only the zero 1-cochain is a coboundary
    mat = _delta_matrix(coch.alg, coch.mod, coch.degree - 1)
    rhs = mat.target.coeff_vector(coch)
    sol = linalg.solve(mat.full, rhs, mat.source.dim)
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
