"""Insertion products on parity-preserving multilinear maps, the alternated
graded bracket, and the Chevalley-Eilenberg coboundary of a Lie
superalgebra (`lie_coboundary`), the one Lie-side coboundary of the library.

A single (p,q)-map is a `core.MultiMap`, read at basis labels.  Brackets of
homogeneous maps are in general sums of maps of several (p,q)-shapes with
the same total argument count; these sums are held in `BlockMap` objects
keyed by (p,q).
"""

from __future__ import annotations

import itertools
import math

from .core import (GradedSpace, MultiMap, as_integers, common_denominator,
                   divided, is_parity_preserving)

__all__ = [
    "BlockMap",
    "gerstenhaber_product",
    "gerstenhaber_bracket",
    "bracket_blocks",
    "alt",
    "alt_blocks",
    "lie_coboundary",
]


# ---------------------------------------------------------------------------
# block sums of (p,q)-maps
# ---------------------------------------------------------------------------

class BlockMap:
    """A finite sum of (p,q)-maps over one space, keyed by shape (p,q).

    All blocks must share the same total argument count p + q.
    """

    __slots__ = ("space", "degree", "_blocks")

    def __init__(self, space: GradedSpace, degree: int, blocks=None):
        self.space = space
        self.degree = degree  # total number of arguments p + q
        self._blocks = {}
        for (p, q), mm in (blocks or {}).items():
            self._add_block(p, q, mm)

    def _add_block(self, p, q, mm: MultiMap):
        if p + q != self.degree:
            raise ValueError("block shape does not match the total degree")
        if (mm.space, mm.p, mm.q) != (self.space, p, q):
            raise ValueError("block map has the wrong shape or space")
        if mm.is_zero():
            return
        if (p, q) in self._blocks:
            total = self._blocks[(p, q)].add(mm)
            if total.is_zero():
                del self._blocks[(p, q)]
            else:
                self._blocks[(p, q)] = total
        else:
            self._blocks[(p, q)] = mm

    @classmethod
    def from_map(cls, mm: MultiMap) -> "BlockMap":
        return cls(mm.space, mm.p + mm.q, {(mm.p, mm.q): mm})

    def shapes(self):
        return sorted(self._blocks, key=lambda pq: (-pq[0], pq[1]))

    def block(self, p, q) -> MultiMap:
        return self._blocks.get((p, q), MultiMap.zero(self.space, p, q))

    def items(self):
        return [(pq, self._blocks[pq]) for pq in self.shapes()]

    def add(self, other: "BlockMap") -> "BlockMap":
        if self.space != other.space or self.degree != other.degree:
            raise ValueError("cannot add block maps of different spaces or "
                             "degrees")
        out = BlockMap(self.space, self.degree, dict(self._blocks))
        for (p, q), mm in other._blocks.items():
            out._add_block(p, q, mm)
        return out

    def sub(self, other: "BlockMap") -> "BlockMap":
        return self.add(other.scale(-1))

    def scale(self, c) -> "BlockMap":
        return BlockMap(self.space, self.degree,
                        {pq: mm.scale(c) for pq, mm in self._blocks.items()})

    def is_zero(self) -> bool:
        return not self._blocks

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockMap)
            and self.space == other.space
            and self.degree == other.degree
            and self._blocks == other._blocks
        )

    def __repr__(self):
        return f"BlockMap(degree={self.degree}, shapes={self.shapes()})"


def _parity_or_raise(phi: MultiMap) -> int:
    if not is_parity_preserving(phi):
        raise ValueError("operand must be parity-preserving")
    if phi.p + phi.q < 1:
        raise ValueError("operands must take at least one argument")
    return (phi.p + phi.q + 1) % 2


# ---------------------------------------------------------------------------
# the integer kernels: operands are cleared to integers over one common
# denominator D on entry, and divided once on exit
# ---------------------------------------------------------------------------

class _Raw:
    """A (p,q)-map's entries as integers, also indexed by output label;
    with ``fold``, folded onto their increasing odd orders (`_fold`)."""

    __slots__ = ("p", "q", "parity", "entries", "by_out")

    def __init__(self, mm: MultiMap, d: int, fold=False):
        self.p, self.q = mm.p, mm.q
        self.parity = _parity_or_raise(mm)
        entries = as_integers(mm.entries(), d)
        if fold and mm.q > 1:
            entries = _fold(entries, mm.space)
        self.entries = entries.items()
        self.by_out: dict = {}
        for (xs, ys, out), c in self.entries:
            self.by_out.setdefault(out, []).append((xs, ys, c))


def _cleared(maps) -> tuple:
    """(D, [_Raw]) for maps sharing the common denominator D."""
    d = common_denominator(c for mm in maps for _, c in mm.entries())
    return d, [_Raw(mm, d) for mm in maps]


def _operands(bm: BlockMap, fold: bool) -> tuple:
    """(D, [_Raw], the [_Raw] that `_insert` inserts) of a block sum's
    blocks: the same list, or with ``fold`` each block folded."""
    maps = [mm for _, mm in bm.items()]
    d, raws = _cleared(maps)
    return d, raws, [_Raw(mm, d, fold=True) for mm in maps] if fold else raws


# ---------------------------------------------------------------------------
# the four insertion cases
# ---------------------------------------------------------------------------
#
# gerstenhaber_product(phi, psi) inserts the value of phi into one argument
# slot of psi.  Which slots admit the value, and with which signs, depends on
# the grading of phi's values:
#
#   (a) even-valued, q = 0: sum over every x-slot i of psi with sign
#       (-1)^{i(p+1)}  (the classical insertion sign (-1)^{ik});
#   (b) even-valued, q >= 1: only the last x-slot of psi, phi's y-arguments
#       coming first, with sign (-1)^{(p'-1)(p+1)};
#   (c) odd-valued, p >= 1: only the first y-slot of psi, psi's x-arguments
#       coming first, with sign (-1)^{p'p};
#   (d) odd-valued, p = 0: sum over every y-slot of psi, no sign.

def _insert(accs: dict, phi: _Raw, psi: _Raw, c: int) -> None:
    """accs[shape] += c * (phi inserted into psi) on integer entries; no
    shape is added when the resulting arity would be negative (the insertion
    is structurally impossible, not merely zero).

    Cases (a) and (b) share one form over x-slots, (c) and (d) one over
    y-slots: phi's missing arguments make the extra slices empty."""
    p, q, p2, q2 = phi.p, phi.q, psi.p, psi.q
    shape = (p + p2 - 1 + q % 2, q + q2 - q % 2)
    if min(shape) < 0:
        return
    acc = accs.setdefault(shape, {})
    find = phi.by_out.get
    if q % 2 == 0:
        slots = range(p2) if q == 0 else range(max(p2 - 1, 0), p2)
        for (pxs, pys, pout), pc in psi.entries:
            for i in slots:
                k = c * pc * (-1) ** (i * (p + 1))
                for fxs, fys, fc in find(pxs[i], ()):
                    key = (pxs[:i] + fxs + pxs[i + 1:], fys + pys, pout)
                    acc[key] = acc.get(key, 0) + k * fc
    else:
        slots = range(q2) if p == 0 else range(min(q2, 1))
        sign = c * (-1) ** (p2 * p)
        for (pxs, pys, pout), pc in psi.entries:
            for i in slots:
                for fxs, fys, fc in find(pys[i], ()):
                    key = (pxs + fxs, pys[:i] + fys + pys[i + 1:], pout)
                    acc[key] = acc.get(key, 0) + sign * pc * fc


def gerstenhaber_product(phi: MultiMap, psi: MultiMap):
    # returns None when the resulting arity would be negative
    d, (f, g) = _cleared((phi, psi))
    if phi.space != psi.space:
        raise ValueError("operands live on different spaces")
    accs: dict = {}
    _insert(accs, f, g, 1)
    for shape, acc in accs.items():  # one shape, or none at all
        return MultiMap._trusted(phi.space, *shape, divided(acc, d * d))
    return None


def _bracket(a: BlockMap, b: BlockMap, fold=False) -> tuple:
    """({shape: integer entries}, D): the bracket of two block sums as
    integers over the common denominator D.  With ``fold`` each inserted
    operand is folded onto its increasing odd orders (`_Raw`), which
    changes the bracket but not its Alt: in every insertion case phi's odd
    arguments land as one contiguous block of the result's odd slots."""
    if a.space != b.space:
        raise ValueError("operands live on different spaces")
    same = a is b
    da, fs, ins_fs = _operands(a, fold)
    db, gs, ins_gs = (da, fs, ins_fs) if same else _operands(b, fold)
    accs: dict = {}
    for f, ins_f in zip(fs, ins_fs):
        for g, ins_g in zip(gs, ins_gs):
            # [phi, psi] = j_phi psi - (-1)^{|phi||psi|} j_psi phi; in a
            # self-bracket the mirror term of (f, g) is met at (g, f)
            sign = (-1) ** (f.parity * g.parity)
            _insert(accs, ins_f, g, 1 - sign if same else 1)
            if not same:
                _insert(accs, ins_g, f, -sign)
    return accs, da * db


def gerstenhaber_bracket(phi: MultiMap, psi: MultiMap) -> BlockMap:
    """[phi, psi] = j_phi psi - (-1)^{|phi||psi|} j_psi phi as a block sum."""
    _parity_or_raise(phi)
    _parity_or_raise(psi)
    return bracket_blocks(BlockMap.from_map(phi), BlockMap.from_map(psi))


def bracket_blocks(a: BlockMap, b: BlockMap) -> BlockMap:
    """Bilinear extension of the bracket to block sums.

    Both operands must be parity-homogeneous: all blocks of a block sum of
    degree d share the parity d (mod 2).
    """
    accs, d = _bracket(a, b)
    return BlockMap(a.space, a.degree + b.degree - 1, {
        (p, q): MultiMap._trusted(a.space, p, q, divided(acc, d))
        for (p, q), acc in accs.items()})


# ---------------------------------------------------------------------------
# alternation
# ---------------------------------------------------------------------------

def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _canonical_ys(space, ys):
    """Sort odd labels into the basis order; returns (sorted tuple, sign) or
    (None, 0) when a label repeats.  Two and three labels are sorted by
    direct comparisons of their indices; a longer tuple reads its sign off
    the inversions of the indices."""
    n = len(ys)
    if n < 2:
        return tuple(ys), 1
    index = space.index
    if n == 2:
        a, b = ys
        i, j = index(a), index(b)
        return ((a, b), 1) if i < j else ((b, a), -1) if i > j else (None, 0)
    if n == 3:
        a, b, c = ys
        i, j, k = index(a), index(b), index(c)
        if i < j:
            if j < k:
                return (a, b, c), 1
            if i < k:
                return ((a, c, b), -1) if k < j else (None, 0)
            return ((c, a, b), 1) if k < i else (None, 0)
        if j < i:
            if i < k:
                return (b, a, c), -1
            if j < k:
                return ((b, c, a), 1) if k < i else (None, 0)
            return ((c, b, a), -1) if k < j else (None, 0)
        return None, 0
    idx = [index(y) for y in ys]
    sign = 1
    for i, j in itertools.combinations(idx, 2):
        if i >= j:
            if i == j:
                return None, 0
            sign = -sign
    return tuple([y for _, y in sorted(zip(idx, ys))]), sign


def _fold(acc: dict, space: GradedSpace) -> dict:
    """Integer entries folded onto their increasing odd orders: each entry
    moved to its sorted y-arguments with the sign of the sort
    (`_canonical_ys`), an entry with a repeated odd label dropping out, and
    only the nonzero sums kept."""
    folded: dict = {}
    for (xs, ys, label), c in acc.items():
        cys, sign = _canonical_ys(space, ys)
        if sign:
            key = (xs, cys, label)
            folded[key] = folded.get(key, 0) + sign * c
    return {key: c for key, c in folded.items() if c}


def _alt_sum(acc: dict, space: GradedSpace, q: int) -> dict:
    """q! Alt of integer entries: the sum of their signed y-permutations.

    The entries are folded once (`_fold`), and only the nonzero sums are
    spread back over the q! orderings: entries + nonzero * q! steps, not
    entries * q!.  For q <= 1 the entries are returned as they are."""
    if q <= 1:
        return acc
    signed = [(perm, _perm_sign(perm))
              for perm in itertools.permutations(range(q))]
    out: dict = {}
    for (xs, ys, label), c in _fold(acc, space).items():
        for perm, sign in signed:
            out[xs, tuple(ys[i] for i in perm), label] = sign * c
    return out


def alt(phi: MultiMap) -> MultiMap:
    """Antisymmetrise over the odd arguments: (1/q!) sum of signed
    y-permutations, folded through the increasing odd orders (`_alt_sum`)."""
    if phi.q <= 1:
        return phi
    d = common_denominator(c for _, c in phi.entries())
    acc = _alt_sum(as_integers(phi.entries(), d), phi.space, phi.q)
    return MultiMap._trusted(phi.space, phi.p, phi.q,
                             divided(acc, d * math.factorial(phi.q)))


def alt_blocks(bm: BlockMap) -> BlockMap:
    return BlockMap(bm.space, bm.degree,
                    {pq: alt(mm) for pq, mm in bm.items()})


def al_bracket_blocks(a: BlockMap, b: BlockMap) -> BlockMap:
    """Alt of the bracket, dividing each block once by D * q!.  Each
    operand is inserted folded (`_bracket`): m's odd-odd block, stored at
    both orders of each odd pair, enters with one entry per pair."""
    accs, d = _bracket(a, b, fold=True)
    return BlockMap(a.space, a.degree + b.degree - 1, {
        (p, q): MultiMap._trusted(a.space, p, q, divided(
            _alt_sum(acc, a.space, q), d * math.factorial(q)))
        for (p, q), acc in accs.items()})


# ---------------------------------------------------------------------------
# the Chevalley-Eilenberg coboundary of a Lie superalgebra
# ---------------------------------------------------------------------------

def lie_coboundary(bracket, parity, coch, labels, k, act=None) -> dict:
    """delta c of a k-cochain c of a Lie superalgebra at every ordered
    (k+1)-tuple of positions in ``labels`` (Chevalley-Eilenberg 1948, with
    the super signs of Fuks 1986):

      delta c(X_0, .., X_k) = sum_i (-1)^i e_i X_i . c(.., ^X_i, ..)
        + sum_{i<j} (-1)^{i+j} e_ij c([X_i, X_j], .., ^X_i, .., ^X_j, ..),

    e_i the Koszul sign of moving X_i to the front, e_ij that of moving X_i
    and then X_j to the front.

    ``bracket(u, v)`` is {term: coeff}, and a term may leave ``labels``;
    ``parity(u)`` is 0 or 1.  ``coch(args)`` is {key: coeff}: the key is a
    module label, a fixed key for a scalar cochain, or a variable index for
    a generic cochain.  It is read at (term,) + rest for each bracket term
    of two labels and each (k-1)-tuple of labels rest, and with ``act`` at
    each k-tuple of labels.  ``act(u, key)`` is {key: coeff}; without it the
    coefficients are trivial.

    A scatter: the nonzero values of c at each bracket term are tabulated
    once, and every term is pushed into each instance it belongs to.
    Returns {position tuple: {key: nonzero coeff}}, without the tuples
    where delta c vanishes."""
    n, par = len(labels), [parity(u) for u in labels]
    out: dict = {}

    def push(inst, vecs, e):  # out[inst] += (-1)^e vec, vecs = (vec, -vec)
        acc = out.setdefault(inst, {})
        for key, c in vecs[e % 2].items():
            acc[key] = acc[key] + c if key in acc else c

    def tuples(m):
        """(positions r, their labels, prefix sums of their parities) for
        every m-tuple: moving X_i and then X_j to the front of an instance
        built from r passes the parities of r[:i] and of r[:j-1]."""
        for r in itertools.product(range(n), repeat=m):
            yield (r, tuple(labels[x] for x in r),
                   list(itertools.accumulate((par[x] for x in r), initial=0)))

    rests = list(tuples(k - 1))
    values: dict = {}  # bracket term -> [(rest, prefix, c(term, *rest))]
    for a, b in itertools.product(range(n), repeat=2):
        for t, co in bracket(labels[a], labels[b]).items():
            if t not in values:
                values[t] = [(r, pre, v) for r, args, pre in rests
                             if (v := coch((t,) + args))]
            for r, pre, v in values[t]:
                v = {key: co * c for key, c in v.items()}
                vecs = v, {key: -c for key, c in v.items()}
                for i, j in itertools.combinations(range(k + 1), 2):
                    push(r[:i] + (a,) + r[i:j - 1] + (b,) + r[j - 1:], vecs,
                         i + j + par[a] * pre[i] + par[b] * pre[j - 1])
    for r, args, pre in tuples(k) if act else ():
        v = coch(args)
        for a in range(n) if v else ():
            moved: dict = {}
            for key, c in v.items():
                for l, d in act(labels[a], key).items():
                    moved[l] = moved.get(l, 0) + c * d
            vecs = moved, {key: -c for key, c in moved.items()}
            for i in range(k + 1):
                push(r[:i] + (a,) + r[i:], vecs, i + par[a] * pre[i])
    return {inst: {key: c for key, c in acc.items() if c}
            for inst, acc in out.items() if any(acc.values())}
