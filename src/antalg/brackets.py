"""Insertion products on parity-preserving multilinear maps, the alternated
graded bracket, and the classical Hochschild / Lie coboundary operators.

A single (p,q)-map is a `core.MultiMap`.  Brackets of homogeneous maps are in
general sums of maps of several (p,q)-shapes with the same total argument
count; these sums are held in `BlockMap` objects keyed by (p,q).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import GradedSpace, MultiMap, Vector, is_parity_preserving

__all__ = [
    "BlockMap",
    "gerstenhaber_product",
    "gerstenhaber_bracket",
    "bracket_blocks",
    "alt",
    "alt_blocks",
    "AlElement",
    "al_bracket",
    "hochschild_differential",
    "chevalley_eilenberg_differential",
    "ce_delta_eval",
    "eval_multilinear",
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

def gerstenhaber_product(phi: MultiMap, psi: MultiMap):
    # returns None when the resulting arity would be negative (the
    # insertion is structurally impossible, not merely zero)
    _parity_or_raise(phi)
    _parity_or_raise(psi)
    if phi.space != psi.space:
        raise ValueError("operands live on different spaces")
    space = phi.space
    p, q = phi.p, phi.q
    p2, q2 = psi.p, psi.q
    even_valued = (q % 2 == 0)
    out: dict = {}

    def put(xs, ys, label, c):
        key = (tuple(xs), tuple(ys), label)
        out[key] = out.get(key, Fraction(0)) + c

    if even_valued and q == 0:
        # case (a): result shape (p + p2 - 1, q2)
        rp, rq = p + p2 - 1, q2
        if rp < 0:
            return None
        for (pxs, pys, pout), pc in psi.entries():
            for i in range(p2):
                sign = Fraction(-1) ** (i * (p + 1))
                for (fxs, fys, fout), fc in phi.entries():
                    if fout != pxs[i]:
                        continue
                    xs = pxs[:i] + fxs + pxs[i + 1:]
                    put(xs, pys, pout, sign * pc * fc)
        return MultiMap(space, rp, rq, out)

    if even_valued:
        # case (b): result shape (p + p2 - 1, q + q2); zero unless p2 >= 1
        rp, rq = p + p2 - 1, q + q2
        if rp < 0:
            return None
        if p2 >= 1:
            sign = Fraction(-1) ** ((p2 - 1) * (p + 1))
            for (pxs, pys, pout), pc in psi.entries():
                for (fxs, fys, fout), fc in phi.entries():
                    if fout != pxs[p2 - 1]:
                        continue
                    xs = pxs[: p2 - 1] + fxs
                    ys = fys + pys
                    put(xs, ys, pout, sign * pc * fc)
        return MultiMap(space, rp, rq, out)

    if p >= 1:
        # case (c): result shape (p + p2, q + q2 - 1); zero unless q2 >= 1
        rp, rq = p + p2, q + q2 - 1
        if rq < 0:
            return None
        if q2 >= 1:
            sign = Fraction(-1) ** (p2 * p)
            for (pxs, pys, pout), pc in psi.entries():
                for (fxs, fys, fout), fc in phi.entries():
                    if fout != pys[0]:
                        continue
                    xs = pxs + fxs
                    ys = fys + pys[1:]
                    put(xs, ys, pout, sign * pc * fc)
        return MultiMap(space, rp, rq, out)

    # case (d): result shape (p2, q + q2 - 1); zero unless q2 >= 1
    rp, rq = p2, q + q2 - 1
    if rq < 0:
        return None
    if q2 >= 1:
        for (pxs, pys, pout), pc in psi.entries():
            for i in range(q2):
                for (fxs, fys, fout), fc in phi.entries():
                    if fout != pys[i]:
                        continue
                    ys = pys[:i] + fys + pys[i + 1:]
                    put(pxs, ys, pout, pc * fc)
    return MultiMap(space, rp, rq, out)


def gerstenhaber_bracket(phi: MultiMap, psi: MultiMap) -> BlockMap:
    """[phi, psi] = j_phi psi - (-1)^{|phi||psi|} j_psi phi as a block sum."""
    pphi = _parity_or_raise(phi)
    ppsi = _parity_or_raise(psi)
    left = gerstenhaber_product(phi, psi)
    right = gerstenhaber_product(psi, phi)
    degree = phi.p + phi.q + psi.p + psi.q - 1
    bm = BlockMap(phi.space, degree)
    if left is not None:
        bm = bm.add(BlockMap.from_map(left))
    if right is not None:
        sign = -Fraction(-1) ** (pphi * ppsi)
        bm = bm.add(BlockMap.from_map(right.scale(sign)))
    return bm


def bracket_blocks(a: BlockMap, b: BlockMap) -> BlockMap:
    """Bilinear extension of the bracket to block sums.

    Both operands must be parity-homogeneous: all blocks of a block sum of
    degree d share the parity d (mod 2).
    """
    degree = a.degree + b.degree - 1
    out = BlockMap(a.space, degree)
    for _, phi in a.items():
        for _, psi in b.items():
            out = out.add(gerstenhaber_bracket(phi, psi))
    return out


# ---------------------------------------------------------------------------
# alternation
# ---------------------------------------------------------------------------

def alt(phi: MultiMap) -> MultiMap:
    """Antisymmetrise over the odd arguments: (1/q!) sum of signed y-permutations."""
    q = phi.q
    if q <= 1:
        return phi
    norm = Fraction(1)
    for k in range(2, q + 1):
        norm /= k
    signed = [(perm, _perm_sign(perm) * norm)
              for perm in itertools.permutations(range(q))]
    out: dict = {}
    for (xs, ys, label), c in phi.entries():
        for perm, w in signed:
            key = (xs, tuple(ys[i] for i in perm), label)
            out[key] = out.get(key, Fraction(0)) + w * c
    return MultiMap(phi.space, phi.p, phi.q, out)


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def alt_blocks(bm: BlockMap) -> BlockMap:
    return BlockMap(bm.space, bm.degree,
                    {pq: alt(mm) for pq, mm in bm.items()})


def is_y_skew(phi: MultiMap) -> bool:
    return alt(phi) == phi


class AlElement:
    """A homogeneous element of the alternated algebra: a parity-preserving,
    y-antisymmetric (p,q)-map with p + q >= 1."""

    __slots__ = ("map",)

    def __init__(self, mm: MultiMap):
        _parity_or_raise(mm)
        if not is_y_skew(mm):
            raise ValueError("map is not antisymmetric in its odd arguments")
        self.map = mm

    @property
    def parity(self) -> int:
        return (self.map.p + self.map.q + 1) % 2

    def __repr__(self):
        return f"AlElement(p={self.map.p}, q={self.map.q})"


def _as_map(x) -> MultiMap:
    return x.map if isinstance(x, AlElement) else x


def al_bracket(a, b) -> BlockMap:
    """The alternated bracket: Alt applied to the graded bracket."""
    return alt_blocks(gerstenhaber_bracket(_as_map(a), _as_map(b)))


def al_bracket_blocks(a: BlockMap, b: BlockMap) -> BlockMap:
    return alt_blocks(bracket_blocks(a, b))


# ---------------------------------------------------------------------------
# classical operators on purely even spaces
# ---------------------------------------------------------------------------

def hochschild_differential(m: MultiMap, phi: MultiMap) -> MultiMap:
    """The associative-algebra coboundary of a k-ary cochain phi (k >= 1):

    (d phi)(x0..xk) = x0.phi(x1..xk)
                      - sum_i (-1)^i phi(.., x_{i} x_{i+1}, ..)
                      + (-1)^{k+1} phi(x0..x_{k-1}).xk

    This is the classical operator: d(identity) is the product itself and
    d o d = 0 whenever the product is associative.  Under the sign
    conventions of gerstenhaber_bracket it equals -[m, phi] exactly.
    """
    space = m.space
    if space.odd:
        raise ValueError("the associative coboundary needs a purely even space")
    if (m.p, m.q) != (2, 0):
        raise ValueError("the product must be a (2,0)-map")
    k = phi.p
    if k < 1 or phi.q != 0:
        raise ValueError("cochains must be (k,0)-maps with k >= 1")
    out: dict = {}
    for xs in itertools.product(space.even, repeat=k + 1):
        total = m.eval((xs[0], phi.eval(xs[1:], ())), ())
        for i in range(k):
            inner = m.eval((xs[i], xs[i + 1]), ())
            args = xs[:i] + (inner,) + xs[i + 2:]
            total = total.add(phi.eval(args, ()).scale(Fraction(-1) ** (i + 1)))
        total = total.add(
            m.eval((phi.eval(xs[:k], ()), xs[k]), ())
            .scale(Fraction(-1) ** (k + 1)))
        for label, c in total.items():
            out[(xs, (), label)] = c
    return MultiMap(space, k + 1, 0, out)


def eval_multilinear(fn, args):
    """Expand formal-vector (dict) arguments linearly through
    fn(labels...) -> dict | None.

    Any None result (an out-of-window product in truncated settings) makes
    the whole evaluation None.  The zero vector is the empty dict.
    """
    for i, a in enumerate(args):
        if isinstance(a, dict):
            total: dict = {}
            for label, c in a.items():
                v = eval_multilinear(fn, args[:i] + (label,) + args[i + 1:])
                if v is None:
                    return None
                total = _generic_add(total, _generic_scale(v, c))
            return total
    return fn(*args)


def ce_delta_eval(bracket_fn, act_fn, phi_fn, args):
    """One instance of the Lie-algebra coboundary of a k-cochain.

    ``args`` is a tuple of k+1 basis points.  ``bracket_fn(a, b)`` returns the
    bracket as a formal vector (dict/Vector) or None when unknown;
    ``act_fn(a, value)`` applies the coefficient action (None for trivial
    coefficients); ``phi_fn(args)`` evaluates the cochain at basis points,
    expanding formal-vector arguments linearly.  Returns the value, or None
    if any needed ingredient is unknown.
    """
    k1 = len(args)
    total = None

    def accumulate(v):
        nonlocal total
        total = v if total is None else _generic_add(total, v)

    if act_fn is not None:
        for i in range(k1):
            rest = args[:i] + args[i + 1:]
            inner = phi_fn(rest)
            if inner is None:
                return None
            acted = act_fn(args[i], inner)
            if acted is None:
                return None
            accumulate(_generic_scale(acted, Fraction(-1) ** i))
    for i in range(k1):
        for j in range(i + 1, k1):
            br = bracket_fn(args[i], args[j])
            if br is None:
                return None
            rest = tuple(a for t, a in enumerate(args) if t not in (i, j))
            val = _phi_linear_first(phi_fn, br, rest)
            if val is None:
                return None
            accumulate(_generic_scale(val, Fraction(-1) ** (i + j)))
    return total if total is not None else {}


def _phi_linear_first(phi_fn, first, rest):
    if isinstance(first, Vector):
        items = list(first.items())
    elif isinstance(first, dict):
        items = list(first.items())
    else:
        return phi_fn((first,) + rest)
    total = None
    for label, c in items:
        v = phi_fn((label,) + rest)
        if v is None:
            return None
        v = _generic_scale(v, c)
        total = v if total is None else _generic_add(total, v)
    return total if total is not None else {}


def _generic_add(a, b):
    # Vectors and plain dicts may meet when one side degenerated to the
    # empty (zero) dict; the zero cases keep the richer representative.
    if isinstance(a, dict) and not a:
        return b
    if isinstance(b, dict) and not b:
        return a
    if isinstance(a, Vector):
        return a.add(b)
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def _generic_scale(a, c):
    if isinstance(a, Vector):
        return a.scale(c)
    return {k: v * c for k, v in a.items() if v * c}


def chevalley_eilenberg_differential(br: MultiMap, phi: MultiMap,
                                     coefficients: str = "adjoint") -> MultiMap:
    """Lie-algebra coboundary of an alternating k-cochain on a purely even
    space, with adjoint or trivial coefficients.

    With trivial coefficients ``phi`` must be valued in basis labels that do
    not occur among its arguments (a designated coefficient line); the action
    term is dropped.
    """
    space = br.space
    if space.odd:
        raise ValueError("the Lie coboundary here needs a purely even space")
    if (br.p, br.q) != (2, 0):
        raise ValueError("the bracket must be a (2,0)-map")
    if not _is_skew_even(br):
        raise ValueError("the bracket must be antisymmetric")
    k = phi.p
    if k < 1 or phi.q != 0:
        raise ValueError("cochains must be (k,0)-maps with k >= 1")
    if not _is_skew_even(phi):
        raise ValueError("the cochain must be antisymmetric")
    if coefficients not in ("adjoint", "trivial"):
        raise ValueError("coefficients must be 'adjoint' or 'trivial'")

    def bracket_fn(a, b):
        return br.eval((a, b), ())

    act_fn = None
    if coefficients == "adjoint":
        def act_fn(a, v):
            return br.eval((a, v), ())

    def phi_fn(args):
        return phi.eval(args, ())

    out: dict = {}
    for xs in itertools.product(space.even, repeat=k + 1):
        v = ce_delta_eval(bracket_fn, act_fn, phi_fn, xs)
        if v is None:
            continue
        for label, c in v.items():
            out[(tuple(xs), (), label)] = c
    return MultiMap(space, k + 1, 0, out)


def _is_skew_even(phi: MultiMap) -> bool:
    """Antisymmetry of a (k,0)-map under exchanging any two x-arguments."""
    k = phi.p
    for xs in itertools.product(phi.space.even, repeat=k):
        base = phi.value(xs, ())
        for i in range(k):
            for j in range(i + 1, k):
                swapped = list(xs)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                if phi.value(tuple(swapped), ()) != base.scale(-1):
                    return False
    return True
