"""Insertion products, the alternated bracket, and the classical operators.

The deterministic values in this file were derived by hand from the four
case formulas and cross-checked against an independent reference
implementation that keeps all argument interleavings (included below).
The reference also documents two structural facts pinned here: the
interleaving-complete bracket satisfies the graded Jacobi identity, while
its restriction to block-ordered maps — the representation the engine
works in — does not, because vanishing on block-ordered points is not
preserved by insertion.
"""

import copy
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from antalg import brackets
from antalg.brackets import (
    BlockMap,
    al_bracket_blocks,
    alt,
    alt_blocks,
    bracket_blocks,
    gerstenhaber_bracket,
    gerstenhaber_product,
    lie_coboundary,
    _perm_sign,
)
from antalg.antialgebra import (
    AntialgebraStructure,
    check_axioms,
    check_axioms_v2,
    zero_square_check,
)
from antalg import linalg
from antalg.core import GradedSpace, MultiMap, Vector, parse_algebra_text
from antalg.zoo import _k1_bracket4

F = Fraction

SP12 = GradedSpace(("u",), ("y0", "y1"))
SP22 = GradedSpace(("u0", "u1"), ("y0", "y1"))
SP23 = GradedSpace(("u0", "u1"), ("y0", "y1", "y2"))
GOLDEN = Path(__file__).parent / "golden"


def _entries(mm):
    if mm is None:
        return {}
    return {k: v for k, v in mm.entries() if v}


def _rand_pp_map(rng, sp, p, q, density=0.4, bound=2):
    """Random parity-preserving (p,q)-map (output grading forced by q)."""
    outs = sp.even if q % 2 == 0 else sp.odd
    ent = {}
    for xs in itertools.product(sp.even, repeat=p):
        for ys in itertools.product(sp.odd, repeat=q):
            for out in outs:
                if rng.random() < density:
                    c = rng.randint(-bound, bound)
                    if c:
                        ent[(xs, ys, out)] = F(c)
    return MultiMap(sp, p, q, ent)


def _rand_alt_map(rng, sp, p, q):
    for _ in range(50):
        mm = alt(_rand_pp_map(rng, sp, p, q))
        if not mm.is_zero():
            return mm
    raise AssertionError("could not draw a nonzero alternated map")


def _shapes(sp, degrees=(1, 2, 3)):
    out = []
    for d in degrees:
        for q in range(0, min(d, 4) + 1):
            p = d - q
            if p >= 0:
                out.append((p, q))
    return out


# ---------------------------------------------------------------------------
# reference implementation over all argument interleavings
# ---------------------------------------------------------------------------
#
# maps are dicts {(args_tuple, out_label): coeff} where args run over every
# interleaving of even and odd labels.  The insertion sign is the Koszul
# sign over the *flipped* grading (even arguments count 1, odd count 0),
# and the parity of a map with p even arguments and values of grading i is
# p + i + 1 (mod 2).

def _kappa(sp, label):
    return 1 if sp.parity(label) == 0 else 0


def _full_parity(sp, m):
    ps = set()
    for (args, out) in m:
        p = sum(1 for a in args if sp.parity(a) == 0)
        ps.add((p + sp.parity(out) + 1) % 2)
    assert len(ps) == 1, "reference maps must be parity-homogeneous"
    return ps.pop()


def _full_jprod(sp, phi, psi):
    if not phi or not psi:
        return {}
    fpar = _full_parity(sp, phi)
    out = {}
    for (pargs, pout), pc in psi.items():
        for i in range(len(pargs)):
            for (fargs, fout), fc in phi.items():
                if fout != pargs[i]:
                    continue
                sign = F(-1) ** (fpar * sum(_kappa(sp, a)
                                            for a in pargs[:i]))
                key = (pargs[:i] + fargs + pargs[i + 1:], pout)
                out[key] = out.get(key, F(0)) + sign * pc * fc
    return {k: c for k, c in out.items() if c}


def _full_bracket(sp, a, b):
    if not a or not b:
        return {}
    s = F(-1) ** (_full_parity(sp, a) * _full_parity(sp, b))
    left = _full_jprod(sp, a, b)
    right = _full_jprod(sp, b, a)
    out = dict(left)
    for k, c in right.items():
        out[k] = out.get(k, F(0)) - s * c
    return {k: c for k, c in out.items() if c}


def _to_full(mm):
    """Extend a block-ordered map by zero to all interleavings."""
    return {(xs + ys, out): c for (xs, ys, out), c in mm.entries() if c}


def _restrict_nomix(sp, full):
    """Keep only block-ordered points (no even argument after an odd one)."""
    out = {}
    for (args, o), c in full.items():
        par = [sp.parity(a) for a in args]
        if any(par[i] == 0 and 1 in par[:i] for i in range(len(args))):
            continue
        p = par.count(0)
        out[(args[:p], args[p:], o)] = c
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# the four insertion cases, frozen by hand
# ---------------------------------------------------------------------------

def test_insertion_even_valued_no_odd_arguments():
    # even-valued, q = 0: every x-slot, alternating signs
    sp = GradedSpace(("u", "v"), ())
    phi = MultiMap(sp, 2, 0, {(("u", "u"), (), "v"): 1})
    psi = MultiMap(sp, 2, 0, {(("v", "u"), (), "u"): 1,
                              (("u", "v"), (), "v"): 1})
    got = gerstenhaber_product(phi, psi)
    assert _entries(got) == {(("u", "u", "u"), (), "u"): F(1),
                             (("u", "u", "u"), (), "v"): F(-1)}


def test_insertion_reduces_to_classical_on_even_spaces():
    """With no odd part the product is the classical insertion sum with
    sign (-1)^{i(n-1)}, n the arity of the inserted map."""
    sp = GradedSpace(("u", "v"), ())
    rng = random.Random(41)
    for _ in range(25):
        n_ins, n_host = rng.randint(1, 3), rng.randint(1, 3)
        g = _rand_pp_map(rng, sp, n_ins, 0)
        f = _rand_pp_map(rng, sp, n_host, 0)
        got = _entries(gerstenhaber_product(g, f))
        want = {}
        for (hxs, _, hout), hc in f.entries():
            for i in range(n_host):
                for (gxs, _, gout), gc in g.entries():
                    if gout != hxs[i]:
                        continue
                    key = (hxs[:i] + gxs + hxs[i + 1:], (), hout)
                    sgn = F(-1) ** (i * (n_ins - 1))
                    want[key] = want.get(key, F(0)) + sgn * hc * gc
        assert got == {k: v for k, v in want.items() if v}


def test_insertion_even_valued_with_odd_arguments():
    # even-valued, q >= 1: only the last x-slot of the host, the inserted
    # map's odd arguments leading, sign (-1)^{(p'-1)(p+1)}
    phi = MultiMap(SP12, 0, 2, {((), ("y0", "y1"), "u"): 1})
    psi = MultiMap(SP12, 2, 0, {(("u", "u"), (), "u"): 1})
    got = gerstenhaber_product(phi, psi)
    assert _entries(got) == {(("u",), ("y0", "y1"), "u"): F(-1)}


def test_insertion_odd_valued_with_even_arguments():
    # odd-valued, p >= 1: only the first y-slot, host x-arguments leading,
    # sign (-1)^{p' p}
    phi = MultiMap(SP12, 1, 1, {(("u",), ("y0",), "y0"): 1})
    psi = MultiMap(SP12, 0, 2, {((), ("y0", "y1"), "u"): 1})
    got = gerstenhaber_product(phi, psi)
    assert _entries(got) == {(("u",), ("y0", "y1"), "u"): F(1)}


def test_insertion_odd_valued_no_even_arguments():
    # odd-valued, p = 0: every y-slot, no sign
    phi = MultiMap(SP12, 0, 1, {((), ("y0",), "y1"): 1})
    psi = MultiMap(SP12, 0, 2, {((), ("y0", "y1"), "u"): 1})
    got = gerstenhaber_product(phi, psi)
    assert _entries(got) == {((), ("y0", "y0"), "u"): F(1)}


def test_insertion_with_no_admissible_slot_is_none():
    # an even-valued map with odd arguments needs an x-slot to land in
    phi = MultiMap(SP12, 0, 2, {((), ("y0", "y1"), "u"): 1})
    psi = MultiMap(SP12, 0, 2, {((), ("y0", "y1"), "u"): 1})
    assert gerstenhaber_product(phi, psi) is None
    # the bracket treats the missing direction as zero
    br = gerstenhaber_bracket(phi, psi)
    assert br.is_zero()


def test_bracket_graded_antisymmetry():
    rng = random.Random(7)
    for _ in range(30):
        pa, qa = rng.choice(_shapes(SP22))
        pb, qb = rng.choice(_shapes(SP22))
        a = _rand_pp_map(rng, SP22, pa, qa)
        b = _rand_pp_map(rng, SP22, pb, qb)
        if a.is_zero() or b.is_zero():
            continue
        sign = F(-1) ** (((pa + qa + 1) % 2) * ((pb + qb + 1) % 2))
        lhs = gerstenhaber_bracket(a, b)
        rhs = gerstenhaber_bracket(b, a).scale(-sign)
        assert lhs == rhs
        assert (alt_blocks(gerstenhaber_bracket(a, b))
                == alt_blocks(gerstenhaber_bracket(b, a)).scale(-sign))


# ---------------------------------------------------------------------------
# alternation
# ---------------------------------------------------------------------------

def test_alt_is_a_projector():
    rng = random.Random(13)
    for _ in range(25):
        p, q = rng.choice(_shapes(SP22))
        mm = _rand_pp_map(rng, SP22, p, q)
        assert alt(alt(mm)) == alt(mm)


def test_alt_kills_symmetric_and_diagonal_entries():
    sym = MultiMap(SP12, 0, 2, {((), ("y0", "y1"), "u"): 1,
                                ((), ("y1", "y0"), "u"): 1,
                                ((), ("y0", "y0"), "u"): 5})
    assert alt(sym).is_zero()
    skew = MultiMap(SP12, 0, 2, {((), ("y0", "y1"), "u"): 1,
                                 ((), ("y1", "y0"), "u"): -1})
    assert alt(skew) == skew


# ---------------------------------------------------------------------------
# agreement with the interleaving-complete reference
# ---------------------------------------------------------------------------

def _draw_full_map(rng, sp):
    labels = sp.labels()
    for _ in range(30):
        n = rng.randint(1, 2)
        pcount = rng.randint(0, n)
        opar = rng.choice([0, 1])
        outs = [l for l in labels if sp.parity(l) == opar]
        m = {}
        for args in itertools.product(labels, repeat=n):
            if sum(1 for a in args if sp.parity(a) == 0) != pcount:
                continue
            for o in outs:
                if rng.random() < 0.5:
                    c = rng.randint(-3, 3)
                    if c:
                        m[(args, o)] = F(c)
        if m:
            return m
    raise AssertionError("could not draw a nonzero reference map")


def test_full_reference_bracket_satisfies_graded_jacobi():
    rng = random.Random(3)
    sp = SP12
    checked = 0
    for _ in range(30):
        a, b, c = (_draw_full_map(rng, sp) for _ in range(3))
        ms = (a, b, c)
        pa, pb, pc = (_full_parity(sp, m) for m in ms)

        def _scale(m, s):
            return {k: v * s for k, v in m.items()}

        t1 = _scale(_full_bracket(sp, a, _full_bracket(sp, b, c)),
                    F(-1) ** (pa * pc))
        t2 = _scale(_full_bracket(sp, b, _full_bracket(sp, c, a)),
                    F(-1) ** (pa * pb))
        t3 = _scale(_full_bracket(sp, c, _full_bracket(sp, a, b)),
                    F(-1) ** (pb * pc))
        total = {}
        for t in (t1, t2, t3):
            for k, v in t.items():
                total[k] = total.get(k, F(0)) + v
        assert not any(total.values())
        checked += 1
    assert checked == 30


def test_engine_product_is_the_block_ordered_restriction():
    """The four case formulas compute exactly the restriction of the
    interleaving-complete insertion product to block-ordered points."""
    rng = random.Random(91)
    for sp in (SP12, SP22):
        for _ in range(40):
            pa, qa = rng.choice(_shapes(sp))
            pb, qb = rng.choice(_shapes(sp))
            a = _rand_pp_map(rng, sp, pa, qa)
            b = _rand_pp_map(rng, sp, pb, qb)
            if a.is_zero() or b.is_zero():
                continue
            got = _entries(gerstenhaber_product(a, b))
            want = _restrict_nomix(sp, _full_jprod(sp, _to_full(a),
                                                   _to_full(b)))
            assert got == want
            got_br = gerstenhaber_bracket(a, b)
            want_br = _restrict_nomix(sp, _full_bracket(sp, _to_full(a),
                                                        _to_full(b)))
            flat = {}
            for _, blk in got_br.items():
                flat.update(_entries(blk))
            assert flat == want_br


def test_vanishing_on_block_ordered_points_is_not_preserved():
    """A map that vanishes on every block-ordered point can insert to one
    that does not: the block-ordered model closes under the product only
    up to such terms.  This is the mechanism behind the Jacobi failure
    below."""
    sp = SP12
    mixed_only = {(("y0", "y1", "u"), "u"): F(1)}   # lives off the block order
    assert _restrict_nomix(sp, mixed_only) == {}
    phi = {(("y0", "y1"), "u"): F(1)}
    prod = _full_jprod(sp, phi, mixed_only)
    assert _restrict_nomix(sp, prod) == {
        ((), ("y0", "y1", "y0", "y1"), "u"): F(1)}


# ---------------------------------------------------------------------------
# Jacobi on the block-ordered model: where it holds and where it cannot
# ---------------------------------------------------------------------------

def _bm_parity(bm):
    return (bm.degree + 1) % 2


def _jacobiator(a, b, c, bracket):
    pa, pb, pc = _bm_parity(a), _bm_parity(b), _bm_parity(c)
    t1 = bracket(a, bracket(b, c)).scale(F(-1) ** (pa * pc))
    t2 = bracket(b, bracket(c, a)).scale(F(-1) ** (pa * pb))
    t3 = bracket(c, bracket(a, b)).scale(F(-1) ** (pb * pc))
    return t1.add(t2).add(t3)


def test_block_ordered_bracket_jacobiator_minimal_counterexample():
    """Fails by exactly the escaped term exhibited above."""
    sp = SP12
    c = BlockMap.from_map(MultiMap(sp, 2, 0, {(("u", "u"), (), "u"): 1}))
    a = BlockMap.from_map(MultiMap(sp, 0, 2, {((), ("y0", "y1"), "u"): 1}))
    jac = _jacobiator(a, a, c, bracket_blocks)
    flat = {}
    for _, blk in jac.items():
        flat.update(_entries(blk))
    assert flat == {((), ("y0", "y1", "y0", "y1"), "u"): F(2)}


def test_alternated_bracket_jacobiator_unit_counterexample():
    # all three inputs are honest alternated elements of arity 2
    sp = SP22
    a = BlockMap.from_map(
        MultiMap(sp, 1, 1, {(("u0",), ("y1",), "y1"): 1}))
    b = BlockMap.from_map(
        alt(MultiMap(sp, 0, 2, {((), ("y1", "y0"), "u0"): 1})))
    jac = _jacobiator(a, b, a, al_bracket_blocks)
    blk = jac.block(2, 2)
    assert blk is not None and _entries(blk) == {
        (("u0", "u0"), ("y1", "y0"), "u0"): F(-1, 4),
        (("u0", "u0"), ("y0", "y1"), "u0"): F(1, 4)}


def test_alternated_bracket_jacobiator_smallest_counterexample():
    """The failure already occurs over a (1|2)-space with unit entries."""
    sp = SP12
    a = BlockMap.from_map(
        alt(MultiMap(sp, 0, 2, {((), ("y0", "y1"), "u"): 1})))
    b = BlockMap.from_map(
        MultiMap(sp, 1, 1, {(("u",), ("y0",), "y0"): 1}))
    jac = _jacobiator(a, b, b, al_bracket_blocks)
    assert _entries(jac.block(2, 2)) == {
        (("u", "u"), ("y0", "y1"), "u"): F(-1, 4),
        (("u", "u"), ("y1", "y0"), "u"): F(1, 4)}


def test_alternated_bracket_jacobi_holds_for_arity_one():
    """For arity-one elements the bracket is built from compositions and
    no insertion spreading occurs, so the Jacobi identity does hold."""
    rng = random.Random(5)
    sp = SP12
    checked = 0
    while checked < 60:
        maps = []
        for _ in range(3):
            if rng.random() < 0.5:
                c = rng.randint(-3, 3)
                mm = MultiMap(sp, 1, 0,
                              {(("u",), (), "u"): F(c)} if c else {})
            else:
                ent = {}
                for yi in ("y0", "y1"):
                    for yo in ("y0", "y1"):
                        c = rng.randint(-3, 3)
                        if c:
                            ent[((), (yi,), yo)] = F(c)
                mm = MultiMap(sp, 0, 1, ent)
            if mm.is_zero():
                break
            maps.append(BlockMap.from_map(mm))
        if len(maps) < 3:
            continue
        assert _jacobiator(*maps, al_bracket_blocks).is_zero()
        checked += 1


def test_alternation_is_not_a_bracket_homomorphism():
    """Alt[phi,psi] need not equal Alt[Alt phi, Alt psi]; minimal pair."""
    sp = SP12
    phi = MultiMap(sp, 1, 2, {(("u",), ("y0", "y1"), "u"): 1,
                              (("u",), ("y1", "y0"), "u"): 1,
                              (("u",), ("y1", "y1"), "u"): 1})
    psi = MultiMap(sp, 2, 1, {(("u", "u"), ("y0",), "y1"): 1})
    assert alt(phi).is_zero()
    lhs = alt_blocks(gerstenhaber_bracket(phi, psi))
    # the right-hand side is the bracket of the alternated parts: here zero
    assert not lhs.is_zero()
    blk = lhs.block(3, 2)
    assert _entries(blk) == {
        (("u", "u", "u"), ("y0", "y1"), "u"): F(-1, 2),
        (("u", "u", "u"), ("y1", "y0"), "u"): F(1, 2)}


# ---------------------------------------------------------------------------
# classical operators on purely even spaces
# ---------------------------------------------------------------------------

ASSOC = GradedSpace(("e", "f"), ())
ASSOC_M = MultiMap(ASSOC, 2, 0, {(("e", "e"), (), "e"): 1,
                                 (("e", "f"), (), "f"): 1,
                                 (("f", "e"), (), "f"): 1})


def hochschild_differential(m: MultiMap, phi: MultiMap) -> MultiMap:
    """The associative-algebra coboundary of a k-ary cochain phi (k >= 1):

    (d phi)(x0..xk) = x0.phi(x1..xk)
                      - sum_i (-1)^i phi(.., x_{i} x_{i+1}, ..)
                      + (-1)^{k+1} phi(x0..x_{k-1}).xk

    This is the classical operator: d(identity) is the product itself and
    d o d = 0 whenever the product is associative.  Under the sign
    conventions of gerstenhaber_bracket it equals -[m, phi] exactly.  It is
    an oracle for the bracket engine; each inner value is expanded over its
    labels.
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
        terms = []  # (coefficient, outer value)
        for l, c in phi.value(xs[1:], ()).items():
            terms.append((c, m.value((xs[0], l), ())))
        for i in range(k):
            for l, c in m.value((xs[i], xs[i + 1]), ()).items():
                terms.append(((-1) ** (i + 1) * c,
                              phi.value(xs[:i] + (l,) + xs[i + 2:], ())))
        for l, c in phi.value(xs[:k], ()).items():
            terms.append(((-1) ** (k + 1) * c, m.value((l, xs[k]), ())))
        for c, vec in terms:
            for label, d in vec.items():
                key = (xs, (), label)
                out[key] = out.get(key, 0) + c * d
    return MultiMap(space, k + 1, 0, out)


def _rand_even_map(rng, k):
    ent = {}
    for args in itertools.product(("e", "f"), repeat=k):
        for out in ("e", "f"):
            c = rng.randint(-3, 3)
            if c:
                ent[(args, (), out)] = F(c)
    return MultiMap(ASSOC, k, 0, ent)


def test_associative_coboundary_of_identity_is_the_product():
    ident = MultiMap(ASSOC, 1, 0, {(("e",), (), "e"): 1,
                                   (("f",), (), "f"): 1})
    assert hochschild_differential(ASSOC_M, ident) == ASSOC_M


def test_associative_coboundary_squares_to_zero():
    rng = random.Random(57)
    for _ in range(20):
        phi = _rand_even_map(rng, rng.choice([1, 2]))
        d1 = hochschild_differential(ASSOC_M, phi)
        d2 = hochschild_differential(ASSOC_M, d1)
        assert d2.is_zero()


def test_associative_coboundary_is_minus_the_bracket():
    rng = random.Random(58)
    for _ in range(20):
        k = rng.choice([1, 2])
        phi = _rand_even_map(rng, k)
        d1 = hochschild_differential(ASSOC_M, phi)
        br = gerstenhaber_bracket(ASSOC_M, phi).block(k + 1, 0)
        assert _entries(br) == {key: -c for key, c in d1.entries()}


def test_associative_coboundary_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hochschild_differential(ASSOC_M,
                                MultiMap(ASSOC, 0, 0, {((), (), "e"): 1}))
    odd_sp = GradedSpace(("e",), ("x",))
    with pytest.raises(ValueError):
        hochschild_differential(
            MultiMap(odd_sp, 2, 0, {(("e", "e"), (), "e"): 1}),
            MultiMap(odd_sp, 1, 0, {(("e",), (), "e"): 1}))


SL2 = GradedSpace(("e", "f", "h"), ())
SL2_BR = MultiMap(SL2, 2, 0, {
    (("h", "e"), (), "e"): 2, (("e", "h"), (), "e"): -2,
    (("h", "f"), (), "f"): -2, (("f", "h"), (), "f"): 2,
    (("e", "f"), (), "h"): 1, (("f", "e"), (), "h"): -1,
})


def _skew_even(mm):
    k = mm.p
    norm = F(1, math.factorial(k))
    out = {}
    for (xs, ys, o), c in mm.entries():
        for perm in itertools.permutations(range(k)):
            key = (tuple(xs[i] for i in perm), (), o)
            out[key] = out.get(key, F(0)) + _perm_sign(perm) * norm * c
    return MultiMap(mm.space, k, 0, out)


def _sl2_bracket(u, v):
    return dict(SL2_BR.value((u, v), ()).items())


def _even(u):
    return 0


def _on_labels(d, labels):
    """The cochain on labels of `lie_coboundary`'s result ``d``, which is
    keyed by positions in ``labels``."""
    pos = {l: i for i, l in enumerate(labels)}
    return lambda args: d.get(tuple(pos[a] for a in args), {})


def test_lie_coboundary_squares_to_zero_on_sl2():
    rng = random.Random(101)
    for _ in range(10):
        k = rng.choice([1, 2])
        ent = {}
        for args in itertools.product(SL2.even, repeat=k):
            for out in SL2.even:
                c = rng.randint(-2, 2)
                if c:
                    ent[(args, (), out)] = F(c)
        phi = _skew_even(MultiMap(SL2, k, 0, ent))
        assert not phi.is_zero()
        d1 = lie_coboundary(_sl2_bracket, _even,
                            lambda args: dict(phi.value(args, ()).items()),
                            SL2.even, k, _sl2_bracket)
        assert lie_coboundary(_sl2_bracket, _even, _on_labels(d1, SL2.even),
                              SL2.even, k + 1, _sl2_bracket) == {}


def test_lie_coboundary_of_the_bracket_restates_jacobi():
    assert lie_coboundary(_sl2_bracket, _even,
                          lambda args: _sl2_bracket(*args), SL2.even, 2,
                          _sl2_bracket) == {}


def test_lie_coboundary_gives_the_cohomology_of_sl2():
    """H*(sl2; k) is 1, 0, 0, 1 in degrees 0 to 3 (Chevalley-Eilenberg
    1948): with trivial coefficients delta^0 = 0, C^0 to C^3 have dims 1,
    3, 3, 1, and delta^1, delta^2 have ranks 3 and 0.  Each matrix is read
    off delta of the unit alternating k-cochains at increasing tuples."""
    labels = SL2.even

    def unit(basis):  # the alternating k-cochain that is 1 at basis
        def coch(args):
            order = sorted(range(len(args)),
                           key=lambda t: labels.index(args[t]))
            if tuple(args[t] for t in order) != basis:
                return {}
            return {"c": _perm_sign(order)}
        return coch

    def matrix(k):  # a column per unit cochain, a row per increasing tuple
        rows = list(itertools.combinations(range(len(labels)), k + 1))
        cols = []
        for basis in itertools.combinations(labels, k):
            d = lie_coboundary(_sl2_bracket, _even, unit(basis), labels, k)
            cols.append({i: d[r]["c"] for i, r in enumerate(rows) if r in d})
        return cols

    ranks = [linalg.rank(matrix(k)) for k in (1, 2)]
    assert ranks == [3, 0]
    dims = [math.comb(3, k) for k in range(4)]
    assert [dims[0], dims[1] - ranks[0], dims[2] - ranks[1] - ranks[0],
            dims[3] - ranks[1]] == [1, 0, 0, 1]


# osp(1|2) as the span of l_-1, l_0, l_1, xi_-1/2, xi_1/2 in K(1), on the
# int keys (doubled indices) of `zoo._k1_bracket4`: the bracket closes on it
OSP = (-2, 0, 2, -1, 1)


def _osp_parity(u):
    return u & 1


def _random_super_alternating(rng, k, outs):
    """A random even k-cochain on OSP, skew in even arguments and symmetric
    in odd ones: c(.., X, Y, ..) = -(-1)^{|X||Y|} c(.., Y, X, ..).  Its
    values are drawn on non-decreasing position tuples, over the keys of
    ``outs`` whose parity is that of the arguments."""
    par = [_osp_parity(u) for u in OSP]
    table = {}
    for r in itertools.combinations_with_replacement(range(len(OSP)), k):
        if any(x == y and not par[x] for x, y in zip(r, r[1:])):
            continue  # a repeated even argument: zero
        want = sum(par[x] for x in r) % 2
        table[r] = {key: F(rng.randint(-2, 2)) for key in outs
                    if _osp_parity(key) == want}
    pos = {u: x for x, u in enumerate(OSP)}

    def coch(args):
        r, sign = [pos[u] for u in args], 1
        for end in range(len(r) - 1, 0, -1):  # bubble sort, sign by swap
            for t in range(end):
                if r[t] > r[t + 1]:
                    r[t], r[t + 1] = r[t + 1], r[t]
                    sign *= 1 if par[r[t]] & par[r[t + 1]] else -1
        return {key: sign * c for key, c in table.get(tuple(r), {}).items()}
    return coch


@pytest.mark.parametrize("coefficients", ["trivial", "adjoint"])
def test_lie_coboundary_squares_to_zero_on_osp12(coefficients):
    """delta^2 = 0 on random even super-alternating cochains of osp(1|2),
    with trivial and with adjoint coefficients: the super signs of the
    engine (the Koszul signs and (-1)^{i+j}) are those of a complex."""
    rng = random.Random(12)
    act = _k1_bracket4 if coefficients == "adjoint" else None
    outs = OSP if act else (0,)  # the scalar key is even
    for k in (1, 2, 3):
        coch = _random_super_alternating(rng, k, outs)
        d = lie_coboundary(_k1_bracket4, _osp_parity, coch, OSP, k, act)
        assert d  # the cochain is not a cocycle
        assert lie_coboundary(_k1_bracket4, _osp_parity, _on_labels(d, OSP),
                              OSP, k + 1, act) == {}


# ---------------------------------------------------------------------------
# the integer engine against the Fraction loops it replaced
# ---------------------------------------------------------------------------
#
# _ref_gerstenhaber_product and _ref_alt are the engine's earlier form:
# Fraction arithmetic throughout, with a full scan of phi's entries for each
# slot of each entry of psi.  The engine now clears denominators on entry,
# works on integers and divides once on exit; it must give the same exact
# Fraction maps.

def _ref_gerstenhaber_product(phi, psi):
    space = phi.space
    p, q = phi.p, phi.q
    p2, q2 = psi.p, psi.q
    even_valued = (q % 2 == 0)
    out = {}

    def put(xs, ys, label, c):
        key = (tuple(xs), tuple(ys), label)
        out[key] = out.get(key, Fraction(0)) + c

    if even_valued and q == 0:
        # case (a)
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
        # case (b)
        rp, rq = p + p2 - 1, q + q2
        if rp < 0:
            return None
        if p2 >= 1:
            sign = Fraction(-1) ** ((p2 - 1) * (p + 1))
            for (pxs, pys, pout), pc in psi.entries():
                for (fxs, fys, fout), fc in phi.entries():
                    if fout != pxs[p2 - 1]:
                        continue
                    put(pxs[: p2 - 1] + fxs, fys + pys, pout, sign * pc * fc)
        return MultiMap(space, rp, rq, out)

    if p >= 1:
        # case (c)
        rp, rq = p + p2, q + q2 - 1
        if rq < 0:
            return None
        if q2 >= 1:
            sign = Fraction(-1) ** (p2 * p)
            for (pxs, pys, pout), pc in psi.entries():
                for (fxs, fys, fout), fc in phi.entries():
                    if fout != pys[0]:
                        continue
                    put(pxs + fxs, fys + pys[1:], pout, sign * pc * fc)
        return MultiMap(space, rp, rq, out)

    # case (d)
    rp, rq = p2, q + q2 - 1
    if rq < 0:
        return None
    if q2 >= 1:
        for (pxs, pys, pout), pc in psi.entries():
            for i in range(q2):
                for (fxs, fys, fout), fc in phi.entries():
                    if fout != pys[i]:
                        continue
                    put(pxs, pys[:i] + fys + pys[i + 1:], pout, pc * fc)
    return MultiMap(space, rp, rq, out)


def _ref_alt(phi):
    q = phi.q
    if q <= 1:
        return phi
    norm = Fraction(1)
    for k in range(2, q + 1):
        norm /= k
    signed = [(perm, _perm_sign(perm) * norm)
              for perm in itertools.permutations(range(q))]
    out = {}
    for (xs, ys, label), c in phi.entries():
        for perm, w in signed:
            key = (xs, tuple(ys[i] for i in perm), label)
            out[key] = out.get(key, Fraction(0)) + w * c
    return MultiMap(phi.space, phi.p, phi.q, out)


def _ref_al_bracket_blocks(a, b):
    """Alt of the bilinear bracket, summed pair by pair with BlockMap.add."""
    out = BlockMap(a.space, a.degree + b.degree - 1)
    for _, phi in a.items():
        for _, psi in b.items():
            sign = -F(-1) ** (((phi.p + phi.q + 1) % 2)
                              * ((psi.p + psi.q + 1) % 2))
            for prod, c in ((_ref_gerstenhaber_product(phi, psi), 1),
                            (_ref_gerstenhaber_product(psi, phi), sign)):
                if prod is not None:
                    out = out.add(BlockMap.from_map(_ref_alt(prod.scale(c))))
    return out


DENOMINATORS = (1, 2, 3, 5, 7, 9, 101)


def _rand_mixed_map(rng, sp, p, q, density=0.4):
    """A random parity-preserving (p,q)-map with mixed denominators."""
    outs = sp.even if q % 2 == 0 else sp.odd
    ent = {}
    for xs in itertools.product(sp.even, repeat=p):
        for ys in itertools.product(sp.odd, repeat=q):
            for out in outs:
                if rng.random() < density:
                    ent[(xs, ys, out)] = F(rng.randint(-4, 4),
                                           rng.choice(DENOMINATORS))
    return MultiMap(sp, p, q, ent)


def _all_fractions(x):
    """Every coefficient of a MultiMap or BlockMap is a Fraction."""
    maps = [mm for _, mm in x.items()] if isinstance(x, BlockMap) else [x]
    return all(type(c) is Fraction for mm in maps for _, c in mm.entries())


SMALL_SHAPES = [(p, q) for p in range(3) for q in range(4) if p + q >= 1]


def test_engine_product_matches_the_fraction_loops_in_every_case():
    """All four insertion cases (a)-(d), q <= 3 on both sides, including
    the shapes with no admissible slot."""
    rng = random.Random(811)
    cases = set()
    nones = 0
    for p, q in SMALL_SHAPES:
        for p2, q2 in SMALL_SHAPES:
            phi = _rand_mixed_map(rng, SP22, p, q)
            psi = _rand_mixed_map(rng, SP22, p2, q2)
            got = gerstenhaber_product(phi, psi)
            want = _ref_gerstenhaber_product(phi, psi)
            if want is None:
                assert got is None
                nones += 1
                continue
            assert got == want and _all_fractions(got)
            cases.add("a" if q == 0 else "b" if q % 2 == 0
                      else "c" if p >= 1 else "d")
    assert cases == {"a", "b", "c", "d"} and nones == 3


def test_engine_product_cancels_to_the_zero_map():
    # psi(phi(x1,x2),x3) - psi(x1,phi(x2,x3)) for an associative product
    # with a fractional coefficient: every term cancels, and the result is
    # the zero (3,0)-map, not None
    m = MultiMap(SP22, 2, 0, {(("u0", "u0"), (), "u0"): F(1, 3)})
    got = gerstenhaber_product(m, m)
    assert got == _ref_gerstenhaber_product(m, m)
    assert (got.p, got.q) == (3, 0) and got.is_zero()
    # two entries of phi whose insertions land on one key with opposite signs
    phi = MultiMap(SP22, 0, 1, {((), ("y0",), "y1"): F(2, 7),
                                ((), ("y1",), "y0"): F(-2, 7)})
    psi = MultiMap(SP22, 0, 2, {((), ("y0", "y0"), "u0"): F(5, 3),
                                ((), ("y1", "y1"), "u0"): F(5, 3)})
    got = gerstenhaber_product(phi, psi)
    assert got == _ref_gerstenhaber_product(phi, psi)
    assert _ref_gerstenhaber_product(phi, psi).is_zero() and got.is_zero()


def _repeats(mm):
    """The number of entries of a map with a repeated odd label."""
    return sum(len(set(ys)) < len(ys) for (_, ys, _), _ in mm.entries())


def test_engine_alt_matches_the_fraction_loops():
    """`alt` folds each entry onto its increasing odd order and spreads only
    the nonzero sums back: on SP23 the q = 3 maps have distinct labels, so
    the spread-back runs, beside entries with a repeated label."""
    rng = random.Random(812)
    spread = repeated = 0
    for sp in (SP22, SP23):
        for p, q in SMALL_SHAPES:
            for _ in range(3):
                mm = _rand_mixed_map(rng, sp, p, q)
                got = alt(mm)
                assert got == _ref_alt(mm) and _all_fractions(got)
                if sp is SP23 and q == 3:
                    spread += not got.is_zero()
                    repeated += _repeats(mm)
    assert spread and repeated
    # a symmetric pair with a fractional coefficient alternates to zero
    sym = MultiMap(SP22, 1, 2, {(("u0",), ("y0", "y1"), "u1"): F(3, 101),
                                (("u0",), ("y1", "y0"), "u1"): F(3, 101)})
    assert alt(sym).is_zero() and _ref_alt(sym).is_zero()
    # a q = 3 map on distinct labels whose signed orderings cancel, beside
    # entries with a repeated label, which drop out of the fold
    cancel = MultiMap(SP23, 0, 3, {((), ("y0", "y1", "y2"), "y1"): F(2, 7),
                                   ((), ("y2", "y1", "y0"), "y1"): F(2, 7),
                                   ((), ("y1", "y2", "y0"), "y1"): F(-4, 7),
                                   ((), ("y2", "y0", "y1"), "y1"): F(4, 7),
                                   ((), ("y0", "y0", "y2"), "y1"): F(5),
                                   ((), ("y2", "y1", "y2"), "y0"): F(1, 3)})
    assert alt(cancel).is_zero() and _ref_alt(cancel).is_zero()
    # one increasing entry spreads over all six orderings
    one = MultiMap(SP23, 1, 3, {(("u1",), ("y2", "y0", "y1"), "y0"): F(3, 5)})
    got = alt(one)
    assert got == _ref_alt(one) and len(got.entries()) == 6
    assert got.coeff(("u1",), ("y0", "y1", "y2"), "y0") == F(1, 10)


def _rand_block_map(rng, sp, degree):
    blocks = {}
    for q in range(degree + 1):
        if rng.random() < 0.7:
            blocks[(degree - q, q)] = _rand_mixed_map(rng, sp, degree - q, q,
                                                      density=0.3)
    return BlockMap(sp, degree, blocks)


def test_al_bracket_blocks_matches_the_fraction_loops():
    """Random block maps on SP22 and on SP23, where brackets have q = 3
    blocks on distinct odd labels whose Alt survives, and the self-bracket
    of a valid 2|4 table, whose raw (0,3) block has entries on distinct
    labels and on repeated ones but alternates to zero."""
    rng = random.Random(813)
    spread = 0
    for sp in (SP22, SP23):
        for _ in range(12):
            a = _rand_block_map(rng, sp, rng.choice((1, 2, 3)))
            b = _rand_block_map(rng, sp, rng.choice((1, 2)))
            got = al_bracket_blocks(a, b)
            assert got == _ref_al_bracket_blocks(a, b) and _all_fractions(got)
            assert _all_fractions(bracket_blocks(a, b))
            spread += sp is SP23 and not got.block(0, 3).is_zero()
    assert spread
    doc = parse_algebra_text((GOLDEN / "k3t2r.alg").read_text())
    m = AntialgebraStructure.from_file_doc(doc).m_blocks()
    raw = bracket_blocks(m, m).block(0, 3)
    assert 0 < _repeats(raw) < len(raw.entries())
    got = al_bracket_blocks(m, m)
    assert got.is_zero() and got == _ref_al_bracket_blocks(m, m)


def test_al_bracket_inserts_each_operand_folded():
    """Alt of a bracket reads each inserted operand only through its fold
    onto increasing odd orders, so `al_bracket_blocks` inserts it folded.
    On random operands on SP23 whose blocks with q >= 2 are not skew, and
    which fold an operand in insertion cases (b), (c) and (d), the raw
    bracket changes with the fold, and its Alt equals the Fraction loops,
    which insert the operands as they are."""
    rng = random.Random(814)
    shapes = (((2, 2), (1, 3)), ((1, 2), (0, 3)))
    cases = set()
    for i in range(8):
        a = BlockMap(SP23, 4 - i % 2, {
            pq: _rand_mixed_map(rng, SP23, *pq, density=0.3)
            for pq in shapes[i % 2]})
        b = BlockMap(SP23, 2, {pq: _rand_mixed_map(rng, SP23, *pq)
                               for pq in ((2, 0), (1, 1), (0, 2))})
        for (p, q), mm in a.items() + b.items():
            if q >= 2:
                assert alt(mm) != mm, (p, q)
                cases.add("b" if q % 2 == 0 else "c" if p else "d")
        assert brackets._bracket(a, b, fold=True) != brackets._bracket(a, b)
        got = al_bracket_blocks(a, b)
        assert got == _ref_al_bracket_blocks(a, b) and _all_fractions(got)
    assert cases == {"b", "c", "d"}


def test_m_enters_the_alternated_bracket_with_one_entry_per_odd_pair():
    """m's odd-odd block holds each odd product at both orders; folded for
    insertion, it holds one entry per odd pair a < b with a product, the
    product times 2 D on the K3 (x) k[t]/(t^4) table."""
    alg = AntialgebraStructure.from_file_doc(
        parse_algebra_text((GOLDEN / "k3t4.alg").read_text()))
    block = alg.m_blocks().block(0, 2)
    d, (raw,) = brackets._cleared([block])
    folded = dict(brackets._Raw(block, d, fold=True).entries)
    index, odd = alg.space.index, set(alg.space.odd)
    want = {((), (a, b), l): 2 * c * d
            for (a, b), v in alg.products.items()
            if {a, b} <= odd and index(a) < index(b) for l, c in v.items()}
    assert folded == want
    assert len({ys for _, ys, _ in folded}) == len(folded) > 0
    assert len(raw.entries) == 2 * len(folded)


@pytest.mark.parametrize("name", ["k3t4p", "k3t2rp"])
def test_al_bracket_of_a_perturbed_structure_matches_the_fraction_loops(name):
    doc = parse_algebra_text((GOLDEN / f"{name}.alg").read_text())
    m = AntialgebraStructure.from_file_doc(doc).m_blocks()
    got = al_bracket_blocks(m, m)
    assert not got.is_zero()
    assert got == _ref_al_bracket_blocks(m, m) and _all_fractions(got)


def _self_bracket_operands():
    """m of each table that `check` runs on in the goldens, random odd
    block maps (degree 2: every block has parity 1) and random even ones
    (degrees 1 and 3), whose self-bracket is zero."""
    data = Path(brackets.__file__).parent / "data"
    for path in [data / "k3.alg"] + [GOLDEN / f"{name}.alg" for name in (
            "k3t2r", "k3t2rp", "k3t4", "k3t4op", "k3t4p")]:
        doc = parse_algebra_text(path.read_text())
        yield AntialgebraStructure.from_file_doc(doc).m_blocks()
    rng = random.Random(907)
    for degree in (2, 2, 2, 2, 2, 2, 1, 3):
        yield _rand_block_map(rng, SP22, degree)


def test_a_self_bracket_is_the_bracket_with_a_copy():
    """A self-bracket inserts each ordered pair once with the weight
    1 - (-1)^{|f||g|} instead of once per order; the integer entries, their
    shapes and the denominator are those of the bracket with a copy of the
    operand, which takes the two-insertion path."""
    for m in _self_bracket_operands():
        twin = copy.deepcopy(m)
        assert twin is not m and twin == m
        assert brackets._bracket(m, m) == brackets._bracket(m, twin)
        assert bracket_blocks(m, m) == bracket_blocks(m, twin)
        assert al_bracket_blocks(m, m) == al_bracket_blocks(m, twin)


def test_no_integer_reaches_a_caller():
    """On a table with non-integral residuals (eps.a doubled in K3, so the
    half-unit law fails) every residual, every [m,m] block and every alt or
    product result is made of Fractions with the exact values of the
    Fraction loops."""
    space = GradedSpace(("eps",), ("a", "b"))
    st = AntialgebraStructure(space, {
        ("eps", "eps"): {"eps": 1}, ("eps", "a"): {"a": 1},
        ("eps", "b"): {"b": F(1, 2)}, ("a", "b"): {"eps": F(1, 2)}})

    def residuals(rep):
        out = []
        for v in rep.violations:
            assert all(type(c) is Fraction for _, c in v.residual.items())
            out.append((v.kind, v.instance, dict(v.residual.items())))
        return out

    assert residuals(check_axioms(space, st.product_map())) == [
        ("half_unit", ("eps", "eps", "a"), {"a": F(1, 2)}),
        ("leibniz", ("eps", "a", "b"), {"eps": F(-1, 4)}),
        ("leibniz", ("eps", "b", "a"), {"eps": F(1, 4)})]
    assert residuals(check_axioms_v2(space, st.product_map())) == [
        ("odd_deriv", ("eps", "eps", "a"), {"a": F(-1)}),
        ("odd_deriv", ("eps", "a", "b"), {"eps": F(1, 4)}),
        ("odd_deriv", ("eps", "b", "a"), {"eps": F(-1, 4)}),
        ("odd_deriv", ("a", "eps", "b"), {"eps": F(1, 4)}),
        ("odd_deriv", ("b", "eps", "a"), {"eps": F(-1, 4)})]
    rep, square = zero_square_check(st)
    assert residuals(rep) == [
        ("square[2,1]", (("eps", "eps"), ("a",)), {"a": F(-1)}),
        ("square[1,2]", (("eps",), ("a", "b")), {"eps": F(1, 4)})]
    assert _all_fractions(square)
    assert {pq: dict(mm.entries()) for pq, mm in square.items()} == {
        (2, 1): {(("eps", "eps"), ("a",), "a"): F(-1)},
        (1, 2): {(("eps",), ("a", "b"), "eps"): F(1, 4),
                 (("eps",), ("b", "a"), "eps"): F(-1, 4)}}
    m = st.m_blocks()
    for _, phi in m.items():
        assert alt(phi) == _ref_alt(phi) and _all_fractions(alt(phi))
        for _, psi in m.items():
            got = gerstenhaber_product(phi, psi)
            want = _ref_gerstenhaber_product(phi, psi)
            assert got == want
            assert got is None or _all_fractions(got)
