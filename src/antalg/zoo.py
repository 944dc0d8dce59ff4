"""Windowed models of the infinite-dimensional examples and their
distinguished cocycles.

Basis labels are (family, index) pairs with exact rational indices:

  ("eps", n), ("a", i)    the conformal antialgebras; n integral, i
                          half-integral.  The full family has all indices,
                          the one-sided variant floors them at 0 and -1/2.
  ("l", n), ("xi", i)     the super Lie algebra of contact vector fields,
                          and its purely even line subalgebra ("l" only,
                          n >= -1).

Dual labels append "*" to the family name and keep the index and the parity.

A window of radius N keeps |index| <= N (or floor <= index <= N for the
one-sided family).  A window bounds the arguments of an identity or a
coboundary instance, never the labels in between: every product is the
global index formula, so every instance whose arguments lie in the window
is decided exactly.  The axiom suites of the conformal windows scatter the
finite tables' identities (`antialgebra._identity_reports`) from the
nonzero products of the window's closure table, which holds the window
labels times the labels of the 2N window, and count the instances no
product reaches as checked without evaluating them.  The Lie-side suites
(gf, dual-gf, gv) take their coboundaries from `brackets.lie_coboundary`.
No suite needs a window margin to decide a coboundary: delta preserves
the weight, the sum of the doubled indices of the arguments (and of the
output, with dual coefficients), so only a preimage's part at the target's
weights matters, and each class is decided by one exact solve on those
weight slices: eta's delta^1 between two slices of the one-sided family
(`_m1_slice`, a `cohomology.CochainBasis` of keys, assembled by
`cohomology._delta_between`), gamma's one dual key of weight 0, and gv's
skew pairs of keys at c's weights.
Cochain values are `DictVec`s, `core.Vector`s over the open basis of all
(family, index) labels.

Inside the suites a label is keyed by its doubled index alone, an `int`:
2n for eps_n, l_n and their duals, 2i for a_i, xi_i and theirs.  Within
the pair (even family, odd family) of a slot the key's last bit is its
parity and names its family, so the key sorts like the label and carries
no family name.  Between the (family, Fraction) functions and the suites
family names are checked on the way in (`_dbl`, which rejects a label of
another family or an index of the wrong kind) and attached on the way out
(`_half`), and nowhere else.  The structure constants are written once,
on int keys, as ints times 4.  The suites compute on ints, build no
`Fraction` for a zero and divide only violations back; the axiom, gamma,
eta and dual-gf suites and gf's two identities count their zero
instances without recording each.  Every label that a caller
passes or receives -- the public products, the suites' callbacks, a
report's instances, residuals and extras, a returned cochain -- is a
(family, Fraction) label.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

from . import linalg
from .antialgebra import _AXIOMS, CheckReport, _identity_reports
from .brackets import _perm_sign, lie_coboundary
from .cohomology import (Cochain, CochainBasis, DeltaContext, _canonical_ys,
                         _cochain_keys, _delta_between, delta_instance)
from .core import Vector, as_integers, common_denominator, divided

__all__ = [
    "WindowedAlgebra",
    "conf_mul",
    "dual_act",
    "k1_bracket",
    "w1_bracket",
    "gamma_value",
    "eta_family",
    "c_gf",
    "C_gf_value",
    "c_gv",
    "verify_ak1_axioms",
    "verify_m1_axioms",
    "verify_cocycle_gamma",
    "verify_cocycle_eta",
    "eta_coboundary_solve",
    "verify_super_cocycle_gf",
    "verify_dual_gf",
    "verify_gv",
    "DictVec",
    "WindowCochain",
    "ak1_adjoint_ctx",
    "ConfDualDeltaCtx",
]

HALF = Fraction(1, 2)
_ZERO = Fraction(0)  # the one zero value of c_gf and c_gv

# the least key of the one-sided family m1 and of its floored dual: the
# floors are 0 on eps and eps*, -1 on a and a*, and every key below -1 lies
# below its floor
_M1_FLOOR = -1

# the family pairs (even family, odd family) of the int keys, and the
# even family alone of the line subalgebra
_CONF, _CONF_DUAL = ("eps", "a"), ("eps*", "a*")
_K1, _K1_DUAL = ("l", "xi"), ("l*", "xi*")
_W1 = ("l",)


def _dbl(label, families) -> int:
    """The int key of a label of ``families``, (even family, odd family) or
    (even family,): its doubled index, read off the index's
    `as_integer_ratio()` without `Fraction` arithmetic.  A label of another
    family, or whose index is not an `int` or `Fraction` of its family's
    kind, raises ValueError."""
    fam, idx = label
    if isinstance(idx, (int, Fraction)):
        n, q = idx.as_integer_ratio()
        p = (k := 2 * n // q) & 1
        if q <= 2 and families[p:p + 1] == (fam,):
            return k
    raise ValueError(f"not a label of {'/'.join(families)}: {label!r}")


def _half(k, families):
    """The (family, Fraction) label of an int key of ``families``."""
    return families[k & 1], Fraction(k, 2)


def _halved(value: dict, families) -> dict:
    return {_half(k, families): c for k, c in value.items()}


# ---------------------------------------------------------------------------
# global structure constants, on int keys, as ints times 4
# ---------------------------------------------------------------------------

def conf_parity(label) -> int:
    return 0 if label[0] in ("eps", "eps*") else 1


def _conf_mul4(u, v) -> dict:
    """4 times `conf_mul` on int keys."""
    if u & v & 1:
        return {u + v: v - u} if v != u else {}
    return {u + v: 2 if (u | v) & 1 else 4}


def conf_mul(u, v) -> dict:
    """The conformal product: eps_n.eps_m = eps_{n+m},
    eps_n.a_i = (1/2) a_{n+i}, a_i.a_j = (1/2)(j-i) eps_{i+j}."""
    return _halved(divided(_conf_mul4(_dbl(u, _CONF), _dbl(v, _CONF)), 4),
                   _CONF)


def _dual_act4(one_sided, a, u) -> dict:
    """4 times `dual_act` on int keys, the actor's and the dual label's,
    with the floors of the one-sided family if ``one_sided``."""
    if a & 1:
        c = -2 if u & 1 else u - 2 * a
    else:
        c = 2 if u & 1 else 4
    # a result key lies below its floor exactly when it is below _M1_FLOOR
    if not c or one_sided and u - a < _M1_FLOOR:
        return {}
    return {u - a: c}


def dual_act(kind, a, u) -> dict:
    """Action on the dual of the regular module:

      eps_n . eps*_m = eps*_{m-n}          eps_n . a*_i = (1/2) a*_{i-n}
      a_i . eps*_m   = (m/2 - i) a*_{m-i}  a_i . a*_j   = -(1/2) eps*_{j-i}

    For the one-sided family the floors are structural: a result whose index
    drops below the floor is exactly zero."""
    return _halved(divided(_dual_act4(
        kind != "ak1", _dbl(a, _CONF), _dbl(u, _CONF_DUAL)), 4), _CONF_DUAL)


def _k1_bracket4(u, v) -> dict:
    """4 times `k1_bracket` on int keys."""
    if u & 1:
        c = 8 if v & 1 else v - 2 * u
    else:
        c = 2 * v - u if v & 1 else 2 * (v - u)
    return {u + v: c} if c else {}


def k1_bracket(u, v) -> dict:
    """[l_n, l_m] = (m-n) l_{n+m}, [l_n, xi_i] = (i - n/2) xi_{n+i},
    [xi_i, xi_j] = 2 l_{i+j}."""
    return _halved(divided(_k1_bracket4(_dbl(u, _K1), _dbl(v, _K1)), 4), _K1)


def w1_bracket(u, v) -> dict:
    """The even part of `k1_bracket`."""
    if u[0] != "l" or v[0] != "l":
        raise ValueError(f"not Witt labels: {u}, {v}")
    return k1_bracket(u, v)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

# the (least, greatest) window radius of each suite by name, which `cli`
# reads too; at its greatest radius each suite runs in about 2 s or less
# (one process on a shared 2-vCPU x86-64 machine); no window is wider than
# _WINDOW_LIMIT, which holds each suite's 2N window and eta's N + 4 one
_WINDOW_RADII = {"gamma": (2, 128), "eta": (2, 100000), "gf": (3, 96),
                 "dual-gf": (3, 128), "gv": (3, 52),
                 "ak1-axioms": (1, 40), "m1-axioms": (1, 80)}
_WINDOW_LIMIT = 2 * max(greatest for _, greatest in _WINDOW_RADII.values())


def _require_window(suite: str, N: int) -> None:
    least, greatest = _WINDOW_RADII[suite]
    if N < least:
        raise ValueError(f"the window must have radius >= {least}")
    if N > greatest:
        raise ValueError(f"the window must have radius <= {greatest}")


class WindowedAlgebra:
    """A window of one of the infinite families: ``even2`` and ``odd2`` list
    its int keys by index, ``even`` and ``odd``, built on first read, its
    labels in the same order."""

    def __init__(self, kind: str, N: int):
        if kind not in ("ak1", "m1", "k1", "w1"):
            raise ValueError(f"unknown family {kind!r}")
        if not 1 <= N <= _WINDOW_LIMIT:
            raise ValueError(f"window radius must lie in [1, {_WINDOW_LIMIT}]")
        self._families = _CONF if kind in ("ak1", "m1") else _K1
        # the least key of each parity; w1 has no odd part
        lo_even, lo_odd = {"m1": (0, _M1_FLOOR), "w1": (-2, 2 * N)}.get(
            kind, (-2 * N, 1 - 2 * N))
        self.even2 = list(range(lo_even, 2 * N + 1, 2))
        self.odd2 = list(range(lo_odd, 2 * N, 2))

    @functools.cached_property
    def even(self) -> list:
        return [_half(k, self._families) for k in self.even2]

    @functools.cached_property
    def odd(self) -> list:
        return [_half(k, self._families) for k in self.odd2]

    def labels(self):
        return self.even + self.odd

    def labels2(self):
        return self.even2 + self.odd2


# ---------------------------------------------------------------------------
# windowed identity checks for the conformal families
# ---------------------------------------------------------------------------

def _conf_axiom_report(kind: str, N: int) -> CheckReport:
    """The four identities of `antialgebra._LAWS` at every window instance,
    scattered from the nonzero products of the window's exact closure
    table: an instance that no product reaches is counted, not evaluated.
    A law's slots range over the window, and a product of two window labels
    lies in the 2N window, so the table holds `_conf_mul4`'s ints, 4 times
    the products of the window labels with the 2N window labels and of
    those with the window labels, on int keys."""
    _require_window(f"{kind}-axioms", N)
    w = WindowedAlgebra(kind, N)
    window, wide = set(w.labels2()), WindowedAlgebra(kind, 2 * N).labels2()
    table = {u: {v: _conf_mul4(u, v) for v in (
        wide if u in window else w.labels2())} for u in wide}
    rep = CheckReport(f"{kind}-axioms[N={N}]")
    rep.merge(*_identity_reports(
        SimpleNamespace(even=w.even2, odd=w.odd2), table, _AXIOMS,
        lambda acc, weight: _halved(divided(acc, weight * 16), _CONF),
        increasing=("cyclic",)).values())
    for v in rep.violations:  # back from int keys to labels
        v.instance = tuple(_half(k, _CONF) for k in v.instance)
    return rep


def verify_ak1_axioms(N: int = 4) -> CheckReport:
    return _conf_axiom_report("ak1", N)


def verify_m1_axioms(N: int = 4) -> CheckReport:
    return _conf_axiom_report("m1", N)


# ---------------------------------------------------------------------------
# vectors, cochains and coboundary contexts over the index families
# ---------------------------------------------------------------------------

class DictVec(Vector):
    """A `core.Vector` over the open basis `_CONF_BASIS` of (family, index)
    labels, whose labels are not checked; ``c`` is its coefficient dict.
    The suites also use it on int keys, which never leave them."""

    __slots__ = ()

    def __init__(self, c=None):
        self.space = _CONF_BASIS
        self._coeffs = {k: v for k, v in (c or {}).items() if v}

    @property
    def c(self) -> dict:
        return self._coeffs

    def __repr__(self):
        return f"DictVec({self._coeffs!r})"


# The conformal labels and their duals as a cochain basis (see
# `cohomology.DeltaContext`): parity by family, odd labels ordered by index.
_CONF_BASIS = SimpleNamespace(parity=conf_parity, index=lambda label: label[1],
                             vector=DictVec)
# The int keys as a cochain basis: parity is the last bit, and the index is
# the key itself.
_INT_BASIS = SimpleNamespace(parity=lambda k: k & 1, index=lambda k: k,
                             vector=DictVec)
# eta's integer context: m1 on its floored dual, times D = 4, int keys
_m1_ctx = functools.partial(DeltaContext, _INT_BASIS, _INT_BASIS, _conf_mul4,
                            functools.partial(_dual_act4, True), denominator=4)


def _sort_ys(ys):
    """Canonical increasing order (by index) with sign; repeats give None."""
    return _canonical_ys(_CONF_BASIS, ys)


class WindowCochain(Cochain):
    """A finitely supported cochain over the conformal families, valued in
    the family or its dual: {(p,q): {(xs, ys): DictVec or dict}} with
    canonical increasing odd arguments.  ``basis`` is that of its labels:
    `_CONF_BASIS` for (family, index) labels, `_INT_BASIS` for int keys.
    There is no finite structure behind it, so ``alg`` and ``mod`` are
    None."""

    def __init__(self, degree: int, blocks=None, basis=_CONF_BASIS):
        self.alg = self.mod = None
        self._fill(basis, basis, degree, blocks)


def _doubled_cochain(coch: WindowCochain, d=None) -> WindowCochain:
    """The same conformal, dual-valued cochain on int keys; given ``d``,
    which every denominator divides, d times it, on ints."""
    value = dict if d is None else functools.partial(as_integers, d=d)
    arg = functools.partial(_dbl, families=_CONF)
    return WindowCochain(coch.degree, {pq: {
        (tuple(map(arg, xs)), tuple(map(arg, ys))):
            value((_dbl(l, _CONF_DUAL), c) for l, c in vec.items())
        for (xs, ys), vec in coch.block(*pq).items()} for pq in coch.shapes()},
        _INT_BASIS)


def ConfDualDeltaCtx(kind: str) -> DeltaContext:
    """Coboundary context for a conformal family acting on its dual module,
    with the global index formulas, defined at every label."""
    return DeltaContext(_CONF_BASIS, _CONF_BASIS, conf_mul,
                        lambda a, l: dual_act(kind, a, l))


def ak1_adjoint_ctx(N: int):
    """Coboundary context for the conformal family acting on itself, with
    the global product (total, as `ConfDualDeltaCtx`), and the ak1 window
    of radius N, whose labels give the instances a caller reads."""
    return (DeltaContext(_CONF_BASIS, _CONF_BASIS, conf_mul, conf_mul),
            WindowedAlgebra("ak1", N))


# ---------------------------------------------------------------------------
# gamma: the dual-valued 1-cocycle on the full conformal family
# ---------------------------------------------------------------------------

def _gamma_t(n):
    return -n


def _gamma_s(i):
    return i * i - Fraction(1, 4)


def _gamma2(k, t_fn, s_fn) -> DictVec:
    """`gamma_value` at an int key, valued on int keys; t_fn and s_fn are
    called at the key's (Fraction) index."""
    return DictVec({-k: Fraction((s_fn if k & 1 else t_fn)(Fraction(k, 2)))})


def gamma_value(label, t_fn=None, s_fn=None) -> DictVec:
    """gamma(eps_n) = t(n) eps*_{-n}, gamma(a_i) = s(i) a*_{-i} with the
    standard choice t(n) = -n, s(i) = i^2 - 1/4."""
    return DictVec(_halved(_gamma2(_dbl(label, _CONF), t_fn or _gamma_t,
                                   s_fn or _gamma_s).c, _CONF_DUAL))


def verify_cocycle_gamma(N: int = 6, t_fn=None, s_fn=None) -> CheckReport:
    """Three checks on the full conformal family:

    1. the cocycle (derivation) identity on every ordered window pair,
       evaluated with the global formulas (no truncation skips);
    2. the characterising functional equations of the coefficient functions:
       additivity of t and s(i) - s(j) = (j - i) t(i + j);
    3. nontriviality on the weight-0 slice: gamma has weight 0, and
       delta preserves weight, so a global dual element bounds gamma only
       if its weight-0 part c eps*_0 does; one exact solve for c against
       gamma at the window labels decides (`_gamma_nontrivial`).

    The residuals of 1 and 2 are ints, 4d times the cocycle dict on int
    keys and d times each equation, d the common denominator of gamma's
    values.  Only a nonzero one is divided back into `Fraction`s and
    recorded; the zeros are counted.
    """
    _require_window("gamma", N)
    rep = CheckReport(f"gamma-cocycle[N={N}]")
    w = WindowedAlgebra("ak1", N)
    # gamma on the 2N window, which holds every product of two window
    # labels, as d gamma on ints; g[k] is d t(k/2) or d s(k/2), k even or odd
    gam = {k: _gamma2(k, t_fn or _gamma_t, s_fn or _gamma_s)
           for k in WindowedAlgebra("ak1", 2 * N).labels2()}
    d = common_denominator(c for v in gam.values() for c in v.c.values())
    ig = {k: as_integers(v.c.items(), d) for k, v in gam.items()}
    g = {k: v.get(-k, 0) for k, v in ig.items()}

    kinds = ("even-even", "mixed", "odd-odd")
    labels = list(zip(w.labels(), w.labels2()))
    for u, u2 in labels:
        pu = u2 & 1
        for v, v2 in labels:
            pv = v2 & 1
            # 4d (gamma(u.v) - rho_u gamma(v) - (-1)^{|u||v|} rho_v gamma(u))
            res: dict = {}
            for l, c in _conf_mul4(u2, v2).items():
                for k, e in ig[l].items():
                    res[k] = res.get(k, 0) + c * e
            for l, c in ig[v2].items():
                for k, e in _dual_act4(False, u2, l).items():
                    res[k] = res.get(k, 0) - c * e
            for l, c in ig[u2].items():
                for k, e in _dual_act4(False, v2, l).items():
                    res[k] = res.get(k, 0) + (c * e if pu & pv else -c * e)
            if any(res.values()):
                rep.record(f"cocycle[{kinds[pu + pv]}]", (u, v),
                           _halved(divided(res, 4 * d), _CONF_DUAL))
    for n in range(-N, N + 1):
        for m in range(-N, N + 1):
            if r := g[2 * (n + m)] - g[2 * n] - g[2 * m]:
                rep.record("t-additive", (n, m), Fraction(r, d))
    for (_, i), ki in zip(w.odd, w.odd2):
        for (_, j), kj in zip(w.odd, w.odd2):
            if r := g[ki] - g[kj] - (kj - ki) // 2 * g[ki + kj]:
                rep.record("s-relation", (i, j), Fraction(r, d))
    # the zero residuals, counted: every ordered pair of window labels, of
    # t's arguments and of s's
    rep.checked += (len(labels) ** 2 + (2 * N + 1) ** 2 + len(w.odd2) ** 2
                    - len(rep.violations))
    nontrivial, detail = _gamma_nontrivial(w, ig.__getitem__)
    rep.extras["nontrivial"] = nontrivial
    rep.extras["nontrivial_detail"] = detail
    if not nontrivial:
        rep.record("nontriviality", ("solve",), Fraction(1))
    return rep


def _gamma_nontrivial(w, gfn):
    """Is there no global dual element b with delta b = gamma at the labels
    of the ak1 window ``w``?  ``gfn`` is d gamma on int keys, on ints.

    gamma has weight 0 (gamma(eps_n) is a multiple of eps*_{-n}, gamma(a_i)
    of a*_{-i}), so only b's weight-0 part c eps*_0 matters: one unknown.
    The even part of delta b is zero for every b (the even-even terms
    -m(x,b) and +m(b,x) cancel), so each component of gamma(eps_n) is an
    empty row; the odd part reads c rho_y eps*_0 = gamma(y), solved as
    (4 rho)(d c) = 4d gamma on ints.  Returns (nontrivial?, detail)."""
    rows, rhs = [], []
    for x in w.labels2():
        rho = _dual_act4(False, x, 0) if x & 1 else {}
        target = gfn(x)
        for comp in sorted(rho.keys() | target.keys()):
            rows.append({0: rho[comp]} if comp in rho else {})
            rhs.append(4 * target.get(comp, 0))
    if linalg.solve(rows, rhs, 1) is None:
        return True, ("no dual element bounds gamma "
                      "(weight-0 slice inconsistent)")
    return False, "a weight-0 dual element bounds gamma"


# ---------------------------------------------------------------------------
# the eta family on the one-sided conformal algebra
# ---------------------------------------------------------------------------

def eta_family(lam, mu, even_even_coeff=None) -> WindowCochain:
    """The two-parameter family of dual-valued 2-cochains

      (2,0):  (eps_0, eps_0)        ->  -(mu/2) eps*_0
      (1,1):  (eps_0; a_{-1/2})     ->  -(mu/2) a*_{1/2}
              (eps_0; a_{1/2})      ->  +(mu/2) a*_{-1/2}
      (0,2):  (a_{-1/2}, a_{1/2})   ->  lam eps*_0

    A member is closed exactly when mu = 0: within this support pattern the
    coboundary rows force every mu-component to zero (no choice of the
    (2,0)-coefficient repairs that, since the obstruction instances never
    see it).  Independently, a member is a coboundary exactly on the line
    lam = mu/2.  The two facts coexist because the dual of the regular
    representation is not a module: in the semidirect sum m1 |x m1* it
    fails the half-unit law x.(v.y) = 1/2 (x.v).y for x even, v an even
    dual vector and y odd.  At (eps_1, eps*_0, a_{-1/2}) the left side is
    eps_1.(1/2 a*_{1/2}) = 1/4 a*_{-1/2}, while eps_1.eps*_0 = eps*_{-1}
    lies below the floor and is 0.  (The law for two even actors holds,
    with weight 1 on even and 1/2 on odd dual vectors.)  So squaring the
    coboundary operator does not vanish on dual-valued cochains, and
    coboundaries need not be closed.  With zeta = {eps_0 -> 2 eps*_0}, the
    solver's witness for eta(1,2) = eta(1,0) + 2 eta(0,1), and eta(1,0)
    closed,

      delta eta(0,1) = 1/2 delta(delta zeta),

    and at each (2,1) instance delta(delta zeta) is the residual of that
    law at (x_0, zeta(x_1), y) plus its residual at (zeta(x_0), x_1, y).

    The default (2,0)-coefficient -mu/2 is the value an actual coboundary
    takes at (eps_0, eps_0) on the line; ``even_even_coeff`` overrides it
    (with the override +mu the family stops being a coboundary even on the
    line, which pins the default as the only line-compatible choice).
    """
    lam, mu = Fraction(lam), Fraction(mu)
    ee = -mu / 2 if even_even_coeff is None else Fraction(even_even_coeff)
    e0 = ("eps", Fraction(0))
    am, ap = ("a", -HALF), ("a", HALF)
    blocks = {
        (2, 0): {((e0, e0), ()): DictVec({("eps*", Fraction(0)): ee})},
        (1, 1): {((e0,), (am,)): DictVec({("a*", HALF): -mu / 2}),
                 ((e0,), (ap,)): DictVec({("a*", -HALF): mu / 2})},
        (0, 2): {((), (am, ap)): DictVec({("eps*", Fraction(0)): lam})},
    }
    return WindowCochain(2, blocks)


def _m1_slice(k, weights):
    """The basis (`CochainBasis.from_keys`) of the keys (p, q, xs, ys, w) of
    C^k of m1 with coefficients in its floored dual whose ints sum to one
    of ``weights``, weight by weight, each in `CochainBasis` order
    (`cohomology._cochain_keys`).  Every key is at least -1, so no key of a
    slice exceeds its weight by more than k, and the slice is finite."""
    keys = []
    for weight in weights:
        keys += _cochain_keys(
            k, range(0, weight + k + 1, 2),
            range(_M1_FLOOR, weight + k + 1, 2),
            lambda q, xs, ys: [w for w in (weight - sum(xs) - sum(ys),)
                               if w >= _M1_FLOOR and w & 1 == q & 1])
    return CochainBasis.from_keys(keys)


@functools.lru_cache(maxsize=1)
def _m1_delta1(weights: tuple):
    """delta^1 of m1 with floored dual coefficients between its slices of
    ``weights`` (`_m1_slice`), by `cohomology._delta_between`.  The last
    one built is kept, so the five targets of a `verify eta` run, all of
    weight 0, share one matrix; its callers only read it."""
    return _delta_between(_m1_ctx(), 1, _m1_slice(1, weights),
                          _m1_slice(2, weights))


def eta_coboundary_solve(N: int, target: WindowCochain):
    """A finite 1-cochain zeta with delta zeta = target globally, or None
    if no global 1-cochain of any support has that coboundary.

    delta preserves the weight, the sum of the ints of the arguments and
    the output, and the weight-w part of any global preimage solves the
    equation on the slice of weight w (`_m1_slice`).  So one exact solve
    of delta^1 over the slices of the weights that the target carries
    (`_m1_delta1`) decides, with no window: a target component at a key
    below its floor lies in no slice and rules every preimage out.  It runs
    on the integer rows S*delta^1 against S*target.  ``N`` is not read; the
    answer does not depend on it."""
    itarget = _doubled_cochain(target)
    values = {(*pq, xs, ys, w): c for pq in itarget.shapes()
              for (xs, ys), vec in itarget.block(*pq).items()
              for w, c in vec.c.items()}
    mat = _m1_delta1(tuple(sorted({sum(key[2] + key[3]) + key[4]
                                   for key in values})))
    rhs = [mat.scale * values.pop(key, 0) for key in mat.target.keys]
    if values:  # a key below its floor
        return None
    sol = linalg.solve(mat.ints, rhs, len(mat.source.keys))
    if sol is None:
        return None
    label = functools.partial(_half, families=_CONF)
    blocks: dict = {}
    for j, c in sol.items():
        p, q, xs, ys, w = mat.source.keys[j]
        blocks.setdefault((p, q), {}).setdefault(
            (tuple(map(label, xs)), tuple(map(label, ys))),
            {})[_half(w, _CONF_DUAL)] = c
    return WindowCochain(1, blocks)


def _sums_at_most(keys, n, bound, distinct):
    """The n-tuples of the ascending ``keys`` whose sum is at most
    ``bound``, in the order of `itertools.combinations` (``distinct``) or
    of `itertools.product`: each slot stops at the first key whose least
    completion by the slots after it exceeds the bound."""
    if not n:
        if bound >= 0:
            yield ()
        return
    for j, k in enumerate(keys):
        rest = keys[j + 1:] if distinct else keys
        if k + (sum(rest[:n - 1]) if distinct else (n - 1) * keys[0]) > bound:
            return
        for tail in _sums_at_most(rest, n - 1, bound - k, distinct):
            yield (k, *tail)


def _delta_report(coch, shapes, window, kind_prefix, target=None):
    """A report of delta coch (minus ``target``) on every instance of the
    given shapes from ``window``, on int keys and ints: in `_m1_ctx`, with
    the cochain and target times their common denominator D_c, S =
    ``ctx.scale(k)`` * D_c times each residual of a k-cochain is an integer
    dict.

    delta preserves the weight, the sum of an instance's keys and its
    output key.  A component w of a value of coch or target at arguments
    of key sum a has weight W = a + w, and delta carries it only to
    instances of weight W whose output key is w or an action's, never
    below `_M1_FLOOR`: to key sums of at most W - min(w, _M1_FLOOR), which
    is W + 1 unless w lies below the floor.  So only the instances under
    the greatest such bound can carry a residual.  They are evaluated
    through the coboundary formulas, `delta_instance`, in window order, so
    this check shares no code with the matrix scatter; every other
    instance is counted as a checked zero.  Only a nonzero residual, a
    violation, is divided by S."""
    rep = CheckReport("inner")
    ctx = _m1_ctx()
    d = common_denominator(
        c for x in (coch, target) if x for pq in x.shapes()
        for v in x.block(*pq).values() for c in v.c.values())
    scale = ctx.scale(coch.degree) * d
    icoch = _doubled_cochain(coch, d)
    itarget = target and _doubled_cochain(target, scale)
    top = max((sum(xs + ys) + w - min(w, _M1_FLOOR)
               for x in (icoch, itarget) if x for pq in x.shapes()
               for (xs, ys), v in x.block(*pq).items() for w in v.c),
              default=-math.inf)
    even, odd = window.even2, window.odd2
    for (P, Q) in shapes:
        for xs in _sums_at_most(even, P, top - sum(odd[:Q]), False):
            for ys in _sums_at_most(odd, Q, top - sum(xs), True):
                res = delta_instance(ctx, icoch, P, Q, xs, ys).c
                for l, c in (itarget.value(P, Q, xs, ys).items()
                             if target else ()):
                    res[l] = res.get(l, 0) - c
                if any(res.values()):
                    rep.record(f"{kind_prefix}[{P},{Q}]", (xs, ys), res)
    rep.checked += sum(len(even) ** P * math.comb(len(odd), Q)
                       for P, Q in shapes) - len(rep.violations)
    for v in rep.violations:  # back to labels
        v.instance = tuple(tuple(_half(k, _CONF) for k in args)
                           for args in v.instance)
        v.residual = _halved(divided(v.residual, scale), _CONF_DUAL)
    return rep


def verify_cocycle_eta(N: int = 4) -> CheckReport:
    """The eta suite on the one-sided conformal family:

    1. delta of the family at the basis parameters (1,0) and (0,1), on
       every window instance, via the global formulas (no skips) — each
       nonzero value is recorded as a violation.  The members have weight
       0, so only instances of key sum at most 1 can be nonzero (22 of the
       1016 at N = 4, witnesses included): those are evaluated and the
       others counted (`_delta_report`).  The (1,0) member is
       closed; the (0,1) member is not, and the report carries its nonzero
       instances rather than hiding them.  They are -1/4 a*_{-1/2} at
       ((eps_0, eps_1); a_{-1/2}) and +1/4 a*_{-1/2} at the swapped pair:
       the dual action fails the half-unit law x.(v.y) = 1/2 (x.v).y for
       an even dual vector v (first failing instance (eps_1, eps*_0,
       a_{-1/2}) -> 1/4 a*_{-1/2}), and delta eta(0,1) = 1/2 delta(delta
       zeta) for the witness zeta of eta(1,2) (see ``eta_family``);
    2. the coboundary solver finds an exact global witness on the line
       lam = mu/2 (checked independently against the coboundary formulas
       over the N + 4 window);
    3. off the line the solve is inconsistent, so no global 1-cochain of
       any support bounds the member; a consistent solve is a violation at
       ("solve",).

    Legs 2 and 3 make one exact solve per target on the weight-0 slice,
    where every member lives (`eta_coboundary_solve`): delta^1 from its 3
    keys of C^1 to its 5 of C^2, built once (`_m1_delta1`), with no window
    and no margin.  Legs 1 and 2 evaluate the coboundary formulas,
    `delta_instance`, on int keys and ints (`_delta_report`), so the
    witness check shares no code with the matrix's scatter.
    """
    _require_window("eta", N)
    rep = CheckReport(f"eta-family[N={N}]")
    rep.extras["coboundary_line"] = "lam = mu/2"
    w = WindowedAlgebra("m1", N)
    for (lam, mu) in ((1, 0), (0, 1)):
        rep.merge(_delta_report(
            eta_family(lam, mu), [(3, 0), (2, 1), (1, 2), (0, 3)], w,
            f"cocycle({lam},{mu})"))
    params = ((1, 2), (Fraction(3, 2), 3), (1, 0), (0, 1), (1, 1))
    for t, (lam, mu) in enumerate(params):
        target = eta_family(lam, mu)
        zeta = eta_coboundary_solve(N, target)
        if t >= 2 and zeta is None:  # off the line: no global preimage
            rep.extras[f"noncoboundary({lam},{mu})"] = "inconsistent"
        elif t >= 2:
            rep.record(f"noncoboundary({lam},{mu})", ("solve",), Fraction(1))
        elif zeta is None:
            rep.record(f"coboundary({lam},{mu})", ("solve",), Fraction(1))
        else:  # independent witness check: delta zeta - target over the
            # N + 4 window through the coboundary formulas
            sub = _delta_report(zeta, [(2, 0), (1, 1), (0, 2)],
                                WindowedAlgebra("m1", N + 4),
                                f"witness({lam},{mu})", target)
            rep.merge(sub)
            rep.extras[f"witness({lam},{mu})"] = (
                "failed" if sub.violations else "verified")
    return rep


# ---------------------------------------------------------------------------
# the central charge cocycle on the contact superalgebra and its dual form
# ---------------------------------------------------------------------------

def _gf(k) -> Fraction:
    """`c_gf` at the int keys (k, -k): n^3 - n at k = 2n, -4 i^2 + 1 at
    k = 2i."""
    return Fraction(1 - k * k) if k & 1 else Fraction(k ** 3 - 4 * k, 8)


def c_gf(u, v) -> Fraction:
    """c(l_n, l_m) = (n^3 - n) delta_{n+m,0};
    c(xi_i, xi_j) = (-4 i^2 + 1) delta_{i+j,0}; zero on mixed pairs."""
    ku, kv = _dbl(u, _K1), _dbl(v, _K1)
    return _ZERO if ku + kv else _gf(ku)


def C_gf_value(label) -> dict:
    """The dual-valued form: C(l_n) = (n^3-n) l*_{-n},
    C(xi_i) = (-4i^2+1) xi*_{-i}."""
    k = _dbl(label, _K1)
    c = _gf(k)
    return {_half(-k, _K1_DUAL): c} if c else {}


OSP_SPAN = (("l", Fraction(-1)), ("l", Fraction(0)), ("l", Fraction(1)),
            ("xi", -HALF), ("xi", HALF))


def _coadjoint4(u, k) -> dict:
    """4 times the coadjoint action on the int keys of dual labels:
    (u . l*)(Z) = -(-1)^{|u||l|} l*([u, Z]), nonzero only at Z = l - u, the
    one Z whose bracket with u has the term l."""
    co = _k1_bracket4(u, k - u).get(k, 0)
    return {k - u: co if u & k & 1 else -co} if co else {}


def verify_super_cocycle_gf(N: int = 4, c_fn=None) -> CheckReport:
    """Super 2-cocycle test with the graded cyclic convention

      (-1)^{|X||Z|} c([X,Y],Z) + (-1)^{|Y||X|} c([Y,Z],X)
      + (-1)^{|Z||Y|} c([Z,X],Y) = 0

    on every ordered window triple (global brackets: no skips), plus graded
    antisymmetry and vanishing on the span of the small subalgebra
    l_{-1}, l_0, l_1, xi_{-1/2}, xi_{1/2}.

    Antisymmetry and the cyclic sum read c's nonzero values as ints, d c;
    the sum is exactly -(-1)^{|X||Z|} delta c(X,Y,Z), the Chevalley-Eilenberg
    coboundary with trivial coefficients (`brackets.lie_coboundary`)."""
    _require_window("gf", N)
    c_fn = c_fn or c_gf
    rep = CheckReport(f"gf-2-cocycle[N={N}]")
    w, big = WindowedAlgebra("k1", N), WindowedAlgebra("k1", 2 * N)
    labels, l2 = w.labels(), w.labels2()
    odd = [X & 1 for X in l2]
    # c at (bracket term, window label), every term lying in the 2N window,
    # where it is nonzero, and d c on ints
    cw = {(t2, u2): c for t, t2 in zip(big.labels(), big.labels2())
          for u, u2 in zip(labels, l2) if (c := c_fn(t, u)) != 0}
    d = common_denominator(cw.values())
    icw = as_integers(cw.items(), d)
    # d (c(X, Y) + (-1)^{|X||Y|} c(Y, X)) where it is nonzero, zeros counted
    for x, y in itertools.product(range(len(labels)), repeat=2):
        xy, yx = icw.get((l2[x], l2[y]), 0), icw.get((l2[y], l2[x]), 0)
        if v := (xy - yx if odd[x] & odd[y] else xy + yx):
            rep.record("skew", (labels[x], labels[y]), Fraction(v, d))
    rep.checked += len(labels) ** 2 - len(rep.violations)
    # 4d times the cyclic sum where it is nonzero, zeros counted
    icoch = {args: {"c": c} for args, c in icw.items()}
    dc = lie_coboundary(_k1_bracket4, _INT_BASIS.parity,
                        lambda args: icoch.get(args, {}), l2, 2)
    rep.checked += len(labels) ** 3 - len(dc)
    for x, y, z in sorted(dc):
        v = dc[x, y, z]["c"]
        rep.record("cyclic", (labels[x], labels[y], labels[z]),
                   Fraction(v if odd[x] & odd[z] else -v, 4 * d))
    for u in OSP_SPAN:
        for v in OSP_SPAN:
            rep.record("osp-vanishing", (u, v), c_fn(u, v))
    return rep


def verify_dual_gf(N: int = 4, C_fn=None) -> CheckReport:
    """The dual-valued 1-cocycle identity for the coadjoint action,

      <delta C(X,Y), Z> = -(-1)^{|X||Y|} <C(Y), [X,Z]> + <C(X), [Y,Z]>
                          - <C([X,Y]), Z> = 0,

    for window pairs (X,Y) and probes Z of index up to 2N (all pairings are
    global: no skips).  delta C is the Chevalley-Eilenberg coboundary with
    the coadjoint action (`brackets.lie_coboundary`), on int keys and ints.
    A value of ``C_fn`` off the dual labels l*, xi* raises ValueError."""
    _require_window("dual-gf", N)
    C_fn = C_fn or C_gf_value
    rep = CheckReport(f"gf-dual-1-cocycle[N={N}]")
    w, big = WindowedAlgebra("k1", N), WindowedAlgebra("k1", 2 * N)
    labels, probes = w.labels(), list(zip(big.labels(), big.labels2()))
    # C on the 2N window, which holds every bracket term, as d C on ints
    cv = {Z2: C_fn(Z) for Z, Z2 in probes}
    d = common_denominator(c for v in cv.values() for c in v.values())
    icoch = {Z2: as_integers(((_dbl(l, _K1_DUAL), c) for l, c in v.items()),
                             d) for Z2, v in cv.items()}
    dC = lie_coboundary(_k1_bracket4, _INT_BASIS.parity,
                        lambda args: icoch[args[0]], w.labels2(), 1,
                        _coadjoint4)
    # 4d times each pairing where delta C is nonzero; the zeros are counted
    for x, y in sorted(dC):
        for Z, k in probes:
            v = dC[x, y].get(k, 0)
            if v:
                rep.record("dual-cocycle", (labels[x], labels[y], Z),
                           Fraction(v, 4 * d))
    rep.checked = len(labels) ** 2 * len(probes)
    return rep


# ---------------------------------------------------------------------------
# the degree-three class on the even line subalgebra
# ---------------------------------------------------------------------------

def c_gv(u, v, w) -> Fraction:
    """The alternating 3-form supported on {l_{-1}, l_0, l_1}: the sign of
    the permutation sorting the indices to (-1, 0, 1)."""
    keys = (_dbl(u, _W1), _dbl(v, _W1), _dbl(w, _W1))
    if sorted(keys) != [-2, 0, 2]:
        return _ZERO
    return Fraction(_perm_sign(sorted(range(3), key=keys.__getitem__)))


def verify_gv(N: int = 5) -> CheckReport:
    """delta c = 0 for the degree-three form, with trivial coefficients, on
    every increasing argument quadruple from the window (global brackets, no
    skips); antisymmetry on permuted triples; and nontriviality: no global
    skew 2-cochain beta has delta beta = c on the window triples.  delta
    preserves weight, so only beta's part at the weights of c's window
    triples matters: the pairs a < b of keys at least -2 there, for c_gv
    the one pair (l_{-1}, l_1).  Both coboundaries are
    `brackets.lie_coboundary` on int keys and ints, the second of the
    generic beta, whose value is {unknown: +-1}."""
    _require_window("gv", N)
    rep = CheckReport(f"gv-3-cocycle[N={N}]")
    w, wide = WindowedAlgebra("w1", N), WindowedAlgebra("w1", 2 * N)
    labels, n = w.even, len(w.even)
    # c at (bracket term, two window labels), every term lying in the 2N
    # window, where it is nonzero; d c on ints gives 4d times delta c
    cv = {(t2, *r2): c for t, t2 in zip(wide.even, wide.even2)
          for r, r2 in zip(*(itertools.product(x, repeat=2)
                             for x in (labels, w.even2)))
          if (c := c_gv(t, *r)) != 0}
    d = common_denominator(cv.values())
    ic = as_integers(cv.items(), d)
    icoch = {a: {"gv": c} for a, c in ic.items()}
    dc = lie_coboundary(_k1_bracket4, _INT_BASIS.parity,
                        lambda args: icoch.get(args, {}), w.even2, 3)
    # the nonzero values at increasing quadruples, in combinations order,
    # and the zeros counted
    quads = sorted(q for q in dc if q[0] < q[1] < q[2] < q[3])
    rep.checked += math.comb(n, 4) - len(quads)
    for quad in quads:
        rep.record("cocycle", tuple(labels[t] for t in quad),
                   divided(dc[quad], 4 * d))
    base = (("l", Fraction(-1)), ("l", Fraction(0)), ("l", Fraction(1)))
    for perm in itertools.permutations(range(3)):
        args = tuple(base[t] for t in perm)
        rep.record("antisymmetry", args,
                   c_gv(*args) - _perm_sign(perm) * c_gv(*base))
    # nontriviality: the unknowns are the pairs (a, b), -2 <= a < b, at the
    # weights a + b of c's window triples; 4 delta beta = 4d c on ints
    triples = list(itertools.combinations(range(n), 3))
    rhs = [4 * ic.get(tuple(w.even2[x] for x in t), 0) for t in triples]
    weights = sorted({sum(w.even2[x] for x in t)
                      for t, c in zip(triples, rhs) if c})
    pairs = [(a, s - a) for s in weights for a in range(-2, s // 2, 2)]
    pair_idx = {p: k for k, p in enumerate(pairs)}

    def beta(args):
        s, r = args
        k = pair_idx.get((min(s, r), max(s, r)))
        return {} if k is None else {k: 1 if s < r else -1}

    dbeta = lie_coboundary(_k1_bracket4, _INT_BASIS.parity, beta, w.even2,
                           2)
    sol = linalg.solve([dbeta.get(t, {}) for t in triples],  # 4 delta beta
                       rhs, len(pairs))
    rep.extras["nontrivial"] = sol is None
    if sol is not None:
        rep.record("nontriviality", ("solve",), Fraction(1))
    return rep
