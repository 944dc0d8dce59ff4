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
one-sided family).  Windowed products return None -- "unknown", distinct
from the zero dict -- whenever the exact result has support outside the
window; identity checks count such instances as skipped.  The axiom
suites of the conformal windows run the finite tables' identities
(`antialgebra._identity_residuals`) on the window's integer table.  The
verification suites for the named cocycles use the global index formulas
instead, so they have no truncation error.  Cochain values are `DictVec`s,
`core.Vector`s over the open basis of all (family, index) labels.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from types import SimpleNamespace

from . import linalg
from .antialgebra import CheckReport, _identity_residuals
from .brackets import _perm_sign
from .cohomology import (COMPONENTS, Cochain, DeltaContext, _canonical_ys,
                         delta_instance)
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
ZERO = Fraction(0)
_SIGN = (Fraction(1), Fraction(-1))  # (-1)^p for a parity p


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _comp_key(label):
    """Sort key of a (family, index) label."""
    return (str(label[0]), label[1])


# ---------------------------------------------------------------------------
# global structure constants
# ---------------------------------------------------------------------------

def conf_parity(label) -> int:
    return 0 if label[0] in ("eps", "eps*") else 1


def conf_mul(u, v) -> dict:
    """The conformal product: eps_n.eps_m = eps_{n+m},
    eps_n.a_i = (1/2) a_{n+i}, a_i.a_j = (1/2)(j-i) eps_{i+j}."""
    (fu, iu), (fv, iv) = u, v
    if fu == "eps" and fv == "eps":
        return {("eps", iu + iv): Fraction(1)}
    if fu == "eps" and fv == "a":
        return {("a", iu + iv): HALF}
    if fu == "a" and fv == "eps":
        return {("a", iu + iv): HALF}
    if fu == "a" and fv == "a":
        c = HALF * (iv - iu)
        return {("eps", iu + iv): c} if c else {}
    raise ValueError(f"not conformal labels: {u}, {v}")


def _dual_floor_ok(kind, label) -> bool:
    if kind == "ak1":
        return True
    fam, idx = label
    return idx >= (0 if fam == "eps*" else -HALF)


def dual_act(kind, a, u) -> dict:
    """Action on the dual of the regular module:

      eps_n . eps*_m = eps*_{m-n}          eps_n . a*_i = (1/2) a*_{i-n}
      a_i . eps*_m   = (m/2 - i) a*_{m-i}  a_i . a*_j   = -(1/2) eps*_{j-i}

    For the one-sided family the floors are structural: a result whose index
    drops below the floor is exactly zero."""
    (fa, ia), (fu, iu) = a, u
    if fa == "eps" and fu == "eps*":
        out = {("eps*", iu - ia): Fraction(1)}
    elif fa == "eps" and fu == "a*":
        out = {("a*", iu - ia): HALF}
    elif fa == "a" and fu == "eps*":
        c = iu / 2 - ia
        out = {("a*", iu - ia): c} if c else {}
    elif fa == "a" and fu == "a*":
        out = {("eps*", iu - ia): -HALF}
    else:
        raise ValueError(f"not an action pair: {a}, {u}")
    return {l: c for l, c in out.items() if _dual_floor_ok(kind, l)}


def k1_bracket(u, v) -> dict:
    """[l_n, l_m] = (m-n) l_{n+m}, [l_n, xi_i] = (i - n/2) xi_{n+i},
    [xi_i, xi_j] = 2 l_{i+j}."""
    (fu, iu), (fv, iv) = u, v
    if fu == "l" and fv == "l":
        c = iv - iu
        return {("l", iu + iv): c} if c else {}
    if fu == "l" and fv == "xi":
        c = iv - iu / 2
        return {("xi", iu + iv): c} if c else {}
    if fu == "xi" and fv == "l":
        c = -(iu - iv / 2)
        return {("xi", iu + iv): c} if c else {}
    if fu == "xi" and fv == "xi":
        return {("l", iu + iv): Fraction(2)}
    raise ValueError(f"not contact labels: {u}, {v}")


def k1_parity(label) -> int:
    return 0 if label[0] in ("l", "l*") else 1


def w1_bracket(u, v) -> dict:
    (fu, iu), (fv, iv) = u, v
    if fu != "l" or fv != "l":
        raise ValueError(f"not Witt labels: {u}, {v}")
    c = iv - iu
    return {("l", iu + iv): c} if c else {}


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def _half_range(lo, hi):
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v += 1
    return out


class WindowedAlgebra:
    """A truncated view of one of the infinite families.

    ``mul``/``bracket`` return the exact product dict when its support stays
    inside the window and None ("unknown") when it does not.  None is
    deliberately distinct from the empty dict, which means exactly zero.
    """

    def __init__(self, kind: str, N: int):
        if kind not in ("ak1", "m1", "k1", "w1"):
            raise ValueError(f"unknown family {kind!r}")
        if N < 1:
            raise ValueError("window radius must be >= 1")
        self.kind = kind
        self.N = N
        n = Fraction(N)
        if kind == "ak1":
            self.even = [("eps", Fraction(k)) for k in range(-N, N + 1)]
            self.odd = [("a", i) for i in _half_range(-n + HALF, n - HALF)]
        elif kind == "m1":
            self.even = [("eps", Fraction(k)) for k in range(0, N + 1)]
            self.odd = [("a", i) for i in _half_range(-HALF, n - HALF)]
        elif kind == "k1":
            self.even = [("l", Fraction(k)) for k in range(-N, N + 1)]
            self.odd = [("xi", i) for i in _half_range(-n + HALF, n - HALF)]
        else:  # w1
            self.even = [("l", Fraction(k)) for k in range(-1, N + 1)]
            self.odd = []

    def labels(self):
        return self.even + self.odd

    def parity(self, label) -> int:
        return conf_parity(label) if self.kind in ("ak1", "m1") else k1_parity(label)

    def in_window(self, label) -> bool:
        fam, idx = label
        if self.kind == "ak1" or self.kind == "k1":
            return abs(idx) <= self.N
        if self.kind == "m1":
            floor = -HALF if fam in ("a", "a*") else Fraction(0)
            return floor <= idx <= self.N
        return Fraction(-1) <= idx <= self.N

    def _window_filter(self, value: dict):
        if any(not self.in_window(l) for l in value):
            return None
        return value

    def mul(self, u, v):
        if self.kind not in ("ak1", "m1"):
            raise ValueError("mul is for the conformal families")
        if not (self.in_window(u) and self.in_window(v)):
            raise ValueError("arguments must lie in the window")
        return self._window_filter(conf_mul(u, v))

    def bracket(self, u, v):
        if self.kind not in ("k1", "w1"):
            raise ValueError("bracket is for the Lie families")
        if not (self.in_window(u) and self.in_window(v)):
            raise ValueError("arguments must lie in the window")
        br = k1_bracket(u, v) if self.kind == "k1" else w1_bracket(u, v)
        return self._window_filter(br)


# ---------------------------------------------------------------------------
# windowed identity checks for the conformal families
# ---------------------------------------------------------------------------

# The label of every product that leaves a window.  It absorbs: a product
# with an unknown factor is unknown, so it reaches an instance's residual
# exactly when that instance needs an unknown product.
_UNKNOWN = object()


def _conf_axiom_report(kind: str, N: int) -> CheckReport:
    """The four identities of `antialgebra._identity_residuals` on every
    basis instance of a conformal window, read off the window's integer
    table with `_UNKNOWN` for each product that leaves the window.  An
    instance whose residual meets `_UNKNOWN` is skipped; the cyclic one is
    recorded at increasing odd positions only."""
    w = WindowedAlgebra(kind, N)
    rep = CheckReport(f"{kind}-axioms[N={N}]")
    labels = w.labels()
    table = {(u, v): w.mul(u, v) for u in labels for v in labels}
    d = common_denominator(c for p in table.values() if p for c in p.values())
    unknown = {_UNKNOWN: 1}
    t = {u: {_UNKNOWN: unknown} for u in labels}
    t[_UNKNOWN] = dict.fromkeys(labels, unknown)
    for (u, v), p in table.items():
        t[u][v] = unknown if p is None else as_integers(p.items(), d)
    for law, inst, acc, weight in _identity_residuals(w, t):
        # odd labels of one family compare by index, the window's order
        if law == "cyclic" and not inst[0] < inst[1] < inst[2]:
            continue
        rep.record(law, inst,
                   None if _UNKNOWN in acc else divided(acc, weight * d * d))
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
    labels, whose labels are not checked; ``c`` is its coefficient dict."""

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


def _sort_ys(ys):
    """Canonical increasing order (by index) with sign; repeats give None."""
    return _canonical_ys(_CONF_BASIS, ys)


class WindowCochain(Cochain):
    """A finitely supported cochain over the conformal families, valued in
    the family or its dual: {(p,q): {(xs, ys): DictVec or dict}} with
    canonical increasing odd arguments.  There is no finite structure behind
    it, so ``alg`` and ``mod`` are None."""

    def __init__(self, degree: int, blocks=None):
        self.alg = self.mod = None
        self._fill(_CONF_BASIS, _CONF_BASIS, degree, blocks)


def ConfDualDeltaCtx(kind: str) -> DeltaContext:
    """Coboundary context for a conformal family acting on its dual module,
    with the global index formulas (total: never unknown)."""
    return DeltaContext(_CONF_BASIS, _CONF_BASIS, conf_mul,
                        lambda a, l: dual_act(kind, a, l))


def ak1_adjoint_ctx(N: int):
    """Coboundary context for the ak1 window acting on itself, and the
    window; out-of-window products are unknown (None)."""
    w = WindowedAlgebra("ak1", N)
    return DeltaContext(_CONF_BASIS, _CONF_BASIS, w.mul, w.mul), w


# ---------------------------------------------------------------------------
# gamma: the dual-valued 1-cocycle on the full conformal family
# ---------------------------------------------------------------------------

def _gamma_t(n):
    return -n


def _gamma_s(i):
    return i * i - Fraction(1, 4)


def gamma_value(label, t_fn=None, s_fn=None) -> DictVec:
    """gamma(eps_n) = t(n) eps*_{-n}, gamma(a_i) = s(i) a*_{-i} with the
    standard choice t(n) = -n, s(i) = i^2 - 1/4."""
    t_fn = t_fn or _gamma_t
    s_fn = s_fn or _gamma_s
    fam, idx = label
    if fam == "eps":
        return DictVec({("eps*", -idx): _fr(t_fn(idx))})
    if fam == "a":
        return DictVec({("a*", -idx): _fr(s_fn(idx))})
    raise ValueError(f"not a conformal label: {label}")


def verify_cocycle_gamma(N: int = 6, t_fn=None, s_fn=None) -> CheckReport:
    """Three checks on the full conformal family:

    1. the cocycle (derivation) identity on every ordered window pair,
       evaluated with the global formulas (no truncation skips);
    2. the characterising functional equations of the coefficient functions:
       additivity of t and s(i) - s(j) = (j - i) t(i + j);
    3. windowed nontriviality: the even part of the coboundary of any dual
       element vanishes identically (the two even-even terms cancel per dual
       basis vector, uniformly in the index), while gamma has nonzero even
       part, so no dual element has coboundary gamma.
    """
    if N < 2:
        raise ValueError("the window must have radius >= 2")
    rep = CheckReport(f"gamma-cocycle[N={N}]")
    w = WindowedAlgebra("ak1", N)
    t_fn = t_fn or _gamma_t
    s_fn = s_fn or _gamma_s
    values: dict = {}  # label -> gamma(label)
    acts: dict = {}    # (actor, dual label) -> its dual action

    def gfn(label):
        if label not in values:
            values[label] = gamma_value(label, t_fn, s_fn)
        return values[label]

    def act(a, l):
        if (a, l) not in acts:
            acts[a, l] = dual_act("ak1", a, l)
        return acts[a, l]

    kinds = ("even-even", "mixed", "odd-odd")
    labels = w.labels()
    for u in labels:
        pu = conf_parity(u)
        for v in labels:
            pv = conf_parity(v)
            # gamma(u.v) - rho_u gamma(v) - (-1)^{|u||v|} rho_v gamma(u)
            res: dict = {}
            for l, c in conf_mul(u, v).items():
                for k, d in gfn(l).items():
                    res[k] = res.get(k, ZERO) + c * d
            for l, c in gfn(v).items():
                for k, d in act(u, l).items():
                    res[k] = res.get(k, ZERO) - c * d
            for l, c in gfn(u).items():
                for k, d in act(v, l).items():
                    res[k] = res.get(k, ZERO) + (c * d if pu & pv else -c * d)
            rep.record(f"cocycle[{kinds[pu + pv]}]", (u, v),
                       {k: c for k, c in res.items() if c})
    for n in range(-N, N + 1):
        for m in range(-N, N + 1):
            rep.record("t-additive", (n, m),
                       _fr(t_fn(n + m)) - _fr(t_fn(n)) - _fr(t_fn(m)))
    half_idx = [i for _, i in w.odd]
    for i in half_idx:
        for j in half_idx:
            rep.record("s-relation", (i, j),
                       _fr(s_fn(i)) - _fr(s_fn(j)) - (j - i) * _fr(t_fn(i + j)))
    nontrivial, detail = _gamma_nontrivial(w, gfn)
    rep.extras["nontrivial"] = nontrivial
    rep.extras["nontrivial_detail"] = detail
    if not nontrivial:
        rep.record("nontriviality", ("solve",), Fraction(1))
    return rep


def _gamma_nontrivial(w, gfn):
    """Is gamma outside the span of coboundaries of dual elements on the
    ak1 window ``w``?

    The ansatz delta b = gamma for an even dual element b is a linear
    system.  Its even part is the zero map for *every* global b -- the two
    even-even terms -m(x,b) and +m(b,x) are (1/2)rho_x b each by
    commutativity, for any index -- so those rows have zero coefficients and
    the system already fails wherever gamma(eps_n) != 0.  The odd part reads
    rho_y b = gamma(y); the action shifts the dual index by -idx(y), so a
    component equation is complete over the window variables iff its unique
    preimage index lies in the window, and only those rows are asserted.
    Inconsistency of the asserted rows rules out every global b, windowed or
    not.  Returns (nontrivial?, detail).
    """
    N = w.N
    variables = [("eps*", Fraction(m)) for m in range(-N, N + 1)]
    rows, rhs = [], []
    for x in w.even:
        # even part of delta b at x: (-1/2 + 1/2) rho_x b, identically zero,
        # so each component of gamma(x) is an empty row; the components
        # gamma(x) lacks would be rows 0 = 0
        target = gfn(x)
        for comp in sorted(target.c, key=_comp_key):
            rows.append({})
            rhs.append(target.c[comp])
    for y in w.odd:
        target = gfn(y)
        by_comp: dict = {}  # component of rho_y b -> {variable: coeff}
        for k, b in enumerate(variables):
            for comp, c in dual_act("ak1", y, b).items():
                by_comp.setdefault(comp, {})[k] = c
        for comp in sorted(by_comp.keys() | target.c.keys(), key=_comp_key):
            if abs(comp[1] + y[1]) > N:
                continue  # preimage outside the variable window: not sound
            rows.append(by_comp.get(comp, {}))
            rhs.append(target.coeff(comp))
    sol = linalg.solve(rows, rhs, len(variables))
    if sol is None:
        return True, "no dual element bounds gamma (window system inconsistent)"
    return False, "a window dual element bounds gamma"


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
    lam, mu = _fr(lam), _fr(mu)
    ee = -mu / 2 if even_even_coeff is None else _fr(even_even_coeff)
    e0 = ("eps", Fraction(0))
    am, ap = ("a", -HALF), ("a", HALF)
    blocks = {
        (2, 0): {((e0, e0), ()): DictVec({("eps*", Fraction(0)): ee})},
        (1, 1): {((e0,), (am,)): DictVec({("a*", HALF): -mu / 2}),
                 ((e0,), (ap,)): DictVec({("a*", -HALF): mu / 2})},
        (0, 2): {((), (am, ap)): DictVec({("eps*", Fraction(0)): lam})},
    }
    return WindowCochain(2, blocks)


def _eta_variables(N: int, D: int):
    walg = WindowedAlgebra("m1", N)
    dual_even = [("eps*", Fraction(m)) for m in range(0, D + 1)]
    dual_odd = [("a*", i) for i in _half_range(-HALF, Fraction(D))]
    variables = []
    for u in walg.even:
        variables.extend((u, w) for w in dual_even)
    for u in walg.odd:
        variables.extend((u, w) for w in dual_odd)
    return walg, dual_even, dual_odd, variables


class _EtaRows:
    """Accumulates the left side of one vector equation delta zeta
    (instance) = target as scalar rows indexed by dual components."""

    def __init__(self, dual_even, dual_odd, arg_window):
        self.dual_even = dual_even
        self.dual_odd = dual_odd
        self.arg_window = arg_window  # labels with known table values
        self.rows: dict = {}  # comp -> {var: coeff}

    def _ws(self, arg):
        return self.dual_even if conf_parity(arg) == 0 else self.dual_odd

    def zeta(self, arg, scale):
        """+ scale * zeta(arg): out-of-window args contribute the known
        value zero in table mode and must have been excluded in sound
        mode."""
        if arg not in self.arg_window:
            return
        for w in self._ws(arg):
            tbl = self.rows.setdefault(w, {})
            tbl[(arg, w)] = tbl.get((arg, w), Fraction(0)) + scale

    def act(self, actor, arg, scale):
        """+ scale * rho_actor zeta(arg)."""
        if arg not in self.arg_window:
            return
        for w in self._ws(arg):
            for comp, c in dual_act("m1", actor, w).items():
                tbl = self.rows.setdefault(comp, {})
                tbl[(arg, w)] = tbl.get((arg, w), Fraction(0)) + scale * c


@functools.lru_cache(maxsize=None)
def _eta_coefficients(N: int, mode: str):
    """The target-free part of `_eta_linear_system`: the rows of "delta zeta
    = target" do not depend on the target, only the right-hand sides do.

    Returns (instances, row_table, variables, comp_bound).  Each instance
    is ((P, Q, xs, ys), comps): comps maps every dual component of the
    instance's row builder that passes the bound, in sorted order, to the
    id of its row in row_table.  Equal rows share one id and one dict, so
    no caller may mutate a row; id 0 is the empty row.
    """
    D = N + 2
    walg, dual_even, dual_odd, variables = _eta_variables(N, D)
    vindex = {v: k for k, v in enumerate(variables)}
    arg_window = set(walg.labels())
    if mode == "table":
        inst = WindowedAlgebra("m1", D + 2)
        comp_bound = None
    elif mode == "sound":
        inst = walg
        comp_bound = Fraction(D - N - 1)
    else:
        raise ValueError(mode)

    row_table, row_id, instances = [{}], {(): 0}, []

    def intern(key, builder: _EtaRows):
        comps = {}
        for comp in sorted(builder.rows, key=_comp_key):
            if comp_bound is not None and comp[1] > comp_bound:
                continue
            row = {vindex[var]: co
                   for var, co in builder.rows[comp].items() if co}
            sig = tuple(sorted(row.items()))
            if sig not in row_id:
                row_id[sig] = len(row_table)
                row_table.append(row)
            comps[comp] = row_id[sig]
        instances.append((key, comps))

    def skip_product(prod: dict) -> bool:
        return mode == "sound" and any(l not in arg_window for l in prod)

    ev, od = inst.even, inst.odd
    for t1 in range(len(ev)):
        for t2 in range(t1, len(ev)):
            x0, x1 = ev[t1], ev[t2]
            prod = conf_mul(x0, x1)
            if skip_product(prod):
                continue
            rb = _EtaRows(dual_even, dual_odd, arg_window)
            for l, c in prod.items():
                rb.zeta(l, HALF * c)
            rb.act(x0, x1, -HALF)
            rb.act(x1, x0, -HALF)
            intern((2, 0, (x0, x1), ()), rb)
    for x in ev:
        for y in od:
            prod = conf_mul(x, y)
            if skip_product(prod):
                continue
            rb = _EtaRows(dual_even, dual_odd, arg_window)
            for l, c in prod.items():
                rb.zeta(l, c)
            rb.act(x, y, Fraction(-1))
            rb.act(y, x, Fraction(-1))
            intern((1, 1, (x,), (y,)), rb)
    for t1 in range(len(od)):
        for t2 in range(t1 + 1, len(od)):
            y0, y1 = od[t1], od[t2]
            prod = conf_mul(y0, y1)
            if skip_product(prod):
                continue
            rb = _EtaRows(dual_even, dual_odd, arg_window)
            for l, c in prod.items():
                rb.zeta(l, c)
            rb.act(y0, y1, Fraction(-1))
            rb.act(y1, y0, Fraction(1))
            intern((0, 2, (), (y0, y1)), rb)
    return tuple(instances), tuple(row_table), tuple(variables), comp_bound


def _eta_linear_system(N: int, target: WindowCochain, mode: str):
    """Rows of "delta zeta = target" over table variables.

    mode "table": equations over the margin window M = D + 2, components
    unrestricted; a solution is a finite table whose coboundary equals the
    target *globally* (beyond the margin both sides vanish: the table is
    supported at argument index <= N and dual index <= D, and the dual floor
    kills every action term once an instance index exceeds D + 2).

    mode "sound": equations only where every zeta-argument stays inside the
    argument window, asserted only on dual components of index <=
    D - N - 1.  Any global zeta, with arbitrary support, satisfies exactly
    these rows with the out-of-window variables not contributing (the action
    shifts the dual index by at most N).  Inconsistency here rules out
    every global preimage, not just windowed ones.

    The rows come from `_eta_coefficients`, built once per (N, mode); this
    pass reads the target's value at each instance for the right-hand
    sides and drops repeated (row, right-hand side) equations.
    """
    instances, row_table, variables, comp_bound = _eta_coefficients(N, mode)
    rows, rhs, seen = [], [], set()
    for (P, Q, xs, ys), comps in instances:
        tvec = target.value(P, Q, xs, ys)
        order = comps
        if tvec.c:
            order = sorted(comps.keys() | {
                comp for comp in tvec.c
                if comp_bound is None or comp[1] <= comp_bound}, key=_comp_key)
        for comp in order:
            rid = comps.get(comp, 0)
            b = tvec.coeff(comp)
            if (rid, b) in seen:
                continue
            seen.add((rid, b))
            if rid or b:  # id 0 is the empty row
                rows.append(row_table[rid])
                rhs.append(b)
    return rows, rhs, list(variables)


def eta_coboundary_solve(N: int, target: WindowCochain):
    """A finite-table 1-cochain zeta with delta zeta = target globally, or
    None when no global preimage of any support exists.

    Existence is decided by the table-mode system (complete over the margin
    window); non-existence by inconsistency of the sound-mode subsystem.
    """
    rows, rhs, variables = _eta_linear_system(N, target, "sound")
    if linalg.solve(rows, rhs, len(variables)) is None:
        return None
    rows, rhs, variables = _eta_linear_system(N, target, "table")
    sol = linalg.solve(rows, rhs, len(variables))
    if sol is None:
        return None
    table: dict = {}
    for k, c in sorted(sol.items()):
        u, w = variables[k]
        table.setdefault(u, {})[w] = c
    b10 = {((u,), ()): DictVec(v) for u, v in table.items()
           if conf_parity(u) == 0}
    b01 = {((), (u,)): DictVec(v) for u, v in table.items()
           if conf_parity(u) == 1}
    blocks = {}
    if b10:
        blocks[(1, 0)] = b10
    if b01:
        blocks[(0, 1)] = b01
    return WindowCochain(1, blocks)


_DELTA2_SHAPES = ((3, 0), (2, 1), (1, 2), (0, 3))


def _record_delta_instances(rep, ctx, coch, shapes, window, kind_prefix,
                            target=None):
    """Record delta coch (minus ``target``) on every window instance of the
    given shapes.  ``ctx`` is a `ConfDualDeltaCtx`, which is total (never
    None), so a component whose source block of ``coch`` is empty
    contributes exactly zero and is not evaluated."""
    present = set(coch.shapes())
    for (P, Q) in shapes:
        comps = tuple(comp for comp in COMPONENTS
                      if (P - comp[0], Q - comp[1]) in present)
        for xs in itertools.product(window.even, repeat=P):
            for ys in itertools.combinations(window.odd, Q):
                v = delta_instance(ctx, coch, P, Q, xs, ys, comps)
                if v is not None and target is not None:
                    v = v.sub(target.value(P, Q, xs, ys))
                rep.record(f"{kind_prefix}[{P},{Q}]", (xs, ys),
                           None if v is None else v.c)


def verify_cocycle_eta(N: int = 4) -> CheckReport:
    """The eta suite on the one-sided conformal family:

    1. delta of the family at the basis parameters (1,0) and (0,1), on
       every window instance, via the global formulas (no skips) — each
       nonzero value is recorded as a violation.  The (1,0) member is
       closed; the (0,1) member is not, and the report carries its nonzero
       instances rather than hiding them.  They are -1/4 a*_{-1/2} at
       ((eps_0, eps_1); a_{-1/2}) and +1/4 a*_{-1/2} at the swapped pair:
       the dual action fails the half-unit law x.(v.y) = 1/2 (x.v).y for
       an even dual vector v (first failing instance (eps_1, eps*_0,
       a_{-1/2}) -> 1/4 a*_{-1/2}), and delta eta(0,1) = 1/2 delta(delta
       zeta) for the witness zeta of eta(1,2) (see ``eta_family``);
    2. the coboundary solver finds an exact global witness on the line
       lam = mu/2 (checked independently against the coboundary formulas
       over the enlarged margin window);
    3. off the line the sound restricted system is inconsistent, so no
       global 1-cochain of any support bounds the member.

    The solver's coefficient rows are built once per (N, mode) and shared
    by all five targets (see `_eta_coefficients`); only the right-hand
    sides vary.
    """
    if N < 2:
        raise ValueError("the window must have radius >= 2")
    rep = CheckReport(f"eta-family[N={N}]")
    rep.extras["coboundary_line"] = "lam = mu/2"
    ctx = ConfDualDeltaCtx("m1")
    w = WindowedAlgebra("m1", N)
    for (lam, mu) in ((1, 0), (0, 1)):
        c = eta_family(lam, mu)
        sub = CheckReport("inner")
        _record_delta_instances(sub, ctx, c, _DELTA2_SHAPES, w,
                                f"cocycle({lam},{mu})")
        rep.merge(sub)
    for (lam, mu) in ((1, 2), (Fraction(3, 2), 3)):
        c = eta_family(lam, mu)
        zeta = eta_coboundary_solve(N, c)
        tag = f"coboundary({lam},{mu})"
        if zeta is None:
            rep.record(tag, ("solve",), Fraction(1))
            continue
        # independent witness check: evaluate delta zeta - target over the
        # margin window through the coboundary formulas
        margin = WindowedAlgebra("m1", N + 4)
        sub = CheckReport("inner")
        _record_delta_instances(sub, ctx, zeta,
                                [(2, 0), (1, 1), (0, 2)], margin,
                                f"witness({lam},{mu})", target=c)
        rep.merge(sub)
        rep.extras[f"witness({lam},{mu})"] = (
            "failed" if sub.violations else "verified")
    for (lam, mu) in ((1, 0), (0, 1), (1, 1)):
        c = eta_family(lam, mu)
        zeta = eta_coboundary_solve(N, c)
        tag = f"noncoboundary({lam},{mu})"
        if zeta is not None:
            rep.record(tag, ("solve",), Fraction(1))
        else:
            rep.extras[tag] = "inconsistent"
    return rep


# ---------------------------------------------------------------------------
# the central charge cocycle on the contact superalgebra and its dual form
# ---------------------------------------------------------------------------

def c_gf(u, v) -> Fraction:
    """c(l_n, l_m) = (n^3 - n) delta_{n+m,0};
    c(xi_i, xi_j) = (-4 i^2 + 1) delta_{i+j,0}; zero on mixed pairs."""
    (fu, iu), (fv, iv) = u, v
    if fu == "l" and fv == "l" and iu + iv == 0:
        return iu ** 3 - iu
    if fu == "xi" and fv == "xi" and iu + iv == 0:
        return -4 * iu ** 2 + 1
    return Fraction(0)


def C_gf_value(label) -> dict:
    """The dual-valued form: C(l_n) = (n^3-n) l*_{-n},
    C(xi_i) = (-4i^2+1) xi*_{-i}."""
    fam, idx = label
    if fam == "l":
        c = idx ** 3 - idx
        return {("l*", -idx): c} if c else {}
    if fam == "xi":
        c = -4 * idx ** 2 + 1
        return {("xi*", -idx): c} if c else {}
    raise ValueError(f"not a contact label: {label}")


OSP_SPAN = (("l", Fraction(-1)), ("l", Fraction(0)), ("l", Fraction(1)),
            ("xi", -HALF), ("xi", HALF))


def verify_super_cocycle_gf(N: int = 4, c_fn=None) -> CheckReport:
    """Super 2-cocycle test with the graded cyclic convention

      (-1)^{|X||Z|} c([X,Y],Z) + (-1)^{|Y||X|} c([Y,Z],X)
      + (-1)^{|Z||Y|} c([Z,X],Y) = 0

    on every ordered window triple (global brackets: no skips), plus graded
    antisymmetry and vanishing on the span of the small subalgebra
    l_{-1}, l_0, l_1, xi_{-1/2}, xi_{1/2}.

    Each of the three terms is S(A,B,C) = (-1)^{|A||C|} c([A,B],C) at a
    cyclic rotation of (X,Y,Z).  The call tabulates c on every window pair
    and the nonzero values of S once (``c_fn`` meets each bracket term and
    third argument once), then reads every instance off the tables."""
    if N < 3:
        raise ValueError("the window must have radius >= 3")
    c_fn = c_fn or c_gf
    rep = CheckReport(f"gf-2-cocycle[N={N}]")
    labels = WindowedAlgebra("k1", N).labels()
    odd = [k1_parity(X) for X in labels]
    pairs = list(itertools.product(range(len(labels)), repeat=2))

    cw = {(x, y): c_fn(labels[x], labels[y]) for x, y in pairs}
    for x, y in pairs:
        rep.record("skew", (labels[x], labels[y]),
                   cw[x, y] + _SIGN[odd[x] & odd[y]] * cw[y, x])

    c_third: dict = {}  # bracket term t -> {z: c_fn(t, Z)}, nonzero values
    cyclic: dict = {}   # (x, y, z) -> the sum of its nonzero S terms
    for a, b in pairs:
        for t, co in k1_bracket(labels[a], labels[b]).items():
            if t not in c_third:
                c_third[t] = {z: v for z, Z in enumerate(labels)
                              if (v := c_fn(t, Z))}
            for c, v in c_third[t].items():
                s = -co * v if odd[a] & odd[c] else co * v
                # S(a,b,c) is a term of the instances (a,b,c), (c,a,b)
                # and (b,c,a)
                for inst in ((a, b, c), (c, a, b), (b, c, a)):
                    cyclic[inst] = cyclic.get(inst, ZERO) + s
    for x, y in pairs:
        for z, Z in enumerate(labels):
            rep.record("cyclic", (labels[x], labels[y], Z),
                       cyclic.get((x, y, z), ZERO))
    for u in OSP_SPAN:
        for v in OSP_SPAN:
            rep.record("osp-vanishing", (u, v), c_fn(u, v))
    return rep


def verify_dual_gf(N: int = 4, C_fn=None) -> CheckReport:
    """The dual-valued 1-cocycle identity for the coadjoint action,

      <delta C(X,Y), Z> = -(-1)^{|X||Y|} <C(Y), [X,Z]> + <C(X), [Y,Z]>
                          - <C([X,Y]), Z> = 0,

    for window pairs (X,Y) and probes Z of index up to 2N (all pairings are
    global: no skips).  The call applies ``C_fn`` once to each window label
    and bracket term, tabulates the pairings <C(Y), [X,Z]> over all probes
    once per window pair, and reads every instance off the tables."""
    if N < 3:
        raise ValueError("the window must have radius >= 3")
    C_fn = C_fn or C_gf_value
    rep = CheckReport(f"gf-dual-1-cocycle[N={N}]")
    labels = WindowedAlgebra("k1", N).labels()
    probes = WindowedAlgebra("k1", 2 * N).labels()
    probe_index = {Z: z for z, Z in enumerate(probes)}
    odd = [k1_parity(X) for X in labels]
    values: dict = {}

    def C(label) -> dict:
        if label not in values:
            values[label] = C_fn(label)
        return values[label]

    # by_dual[u]: the dual label of each bracket term of [labels[u], Z],
    # with every (probe index, coefficient) it occurs at
    by_dual = []
    for X in labels:
        occ: dict = {}
        for z, Z in enumerate(probes):
            for t, co in k1_bracket(X, Z).items():
                occ.setdefault((t[0] + "*", t[1]), []).append((z, co))
        by_dual.append(occ)

    def paired(dvec: dict, u: int) -> dict:
        """{z: <dvec, [labels[u], probes[z]]>} where some term pairs."""
        out: dict = {}
        for l, c in dvec.items():
            for z, co in by_dual[u].get(l, ()):
                out[z] = out.get(z, ZERO) + co * c
        return out

    pairing = [[paired(C(Y), u) for u in range(len(labels))] for Y in labels]
    for x, X in enumerate(labels):
        for y, Y in enumerate(labels):
            res: dict = {}
            # -(-1)^{|X||Y|} <C(Y), [X,Z]>
            for z, v in pairing[y][x].items():
                res[z] = res.get(z, ZERO) + (v if odd[x] & odd[y] else -v)
            for z, v in pairing[x][y].items():  # + <C(X), [Y,Z]>
                res[z] = res.get(z, ZERO) + v
            for t, co in k1_bracket(X, Y).items():  # - <C([X,Y]), Z>
                for l, c in C(t).items():
                    z = probe_index.get((l[0].rstrip("*"), l[1]))
                    if z is not None:
                        res[z] = res.get(z, ZERO) - co * c
            for z, Z in enumerate(probes):
                rep.record("dual-cocycle", (X, Y, Z), res.get(z, ZERO))
    return rep


# ---------------------------------------------------------------------------
# the degree-three class on the even line subalgebra
# ---------------------------------------------------------------------------

def c_gv(u, v, w) -> Fraction:
    """The alternating 3-form supported on {l_{-1}, l_0, l_1}: the sign of
    the permutation sorting the indices to (-1, 0, 1)."""
    idx = (u[1], v[1], w[1])
    if sorted(idx) != [Fraction(-1), Fraction(0), Fraction(1)]:
        return Fraction(0)
    order = tuple(sorted(range(3), key=lambda t: idx[t]))
    return Fraction(_perm_sign(order))


def verify_gv(N: int = 5) -> CheckReport:
    """delta c = 0 for the degree-three form, with trivial coefficients, on
    every increasing argument quadruple from the window (global brackets, no
    skips); antisymmetry on permuted triples; and windowed nontriviality:
    the ansatz c = delta beta over skew 2-cochains with argument-sum ceiling
    2N is inconsistent (each equation only references beta at index sums
    within the ceiling, so the restriction is sound for every global beta)."""
    if N < 3:
        raise ValueError("the window must have radius >= 3")
    rep = CheckReport(f"gv-3-cocycle[N={N}]")
    w = WindowedAlgebra("w1", N)
    labels = w.even

    for quad in itertools.combinations(labels, 4):
        # sum over i < j of (-1)^{i+j} c([a_i, a_j], rest)
        x = ZERO
        for i, j in itertools.combinations(range(4), 2):
            rest = tuple(a for t, a in enumerate(quad) if t not in (i, j))
            for t, co in w1_bracket(quad[i], quad[j]).items():
                x += (-1) ** (i + j) * co * c_gv(t, *rest)
        rep.record("cocycle", quad, {"gv": x} if x else {})
    base = (("l", Fraction(-1)), ("l", Fraction(0)), ("l", Fraction(1)))
    for perm in itertools.permutations(range(3)):
        args = tuple(base[t] for t in perm)
        rep.record("antisymmetry", args,
                   c_gv(*args) - _perm_sign(perm) * c_gv(*base))
    # nontriviality: beta variables are ordered pairs (a,b), a < b
    ceiling = 2 * N
    pair_idx = {}
    pairs = []
    rng_indices = [Fraction(k) for k in range(-1, ceiling + 1)]
    for t1 in range(len(rng_indices)):
        for t2 in range(t1 + 1, len(rng_indices)):
            pair_idx[(rng_indices[t1], rng_indices[t2])] = len(pairs)
            pairs.append((rng_indices[t1], rng_indices[t2]))
    rows, rhs = [], []
    for (a, b, c) in itertools.combinations([l[1] for l in labels], 3):
        row = {}

        def beta_coeff(s, r, scale):
            if s == r:
                return
            key = (s, r) if s < r else (r, s)
            sgn = Fraction(1) if s < r else Fraction(-1)
            j = pair_idx[key]
            if v := row.pop(j, 0) + sgn * scale:
                row[j] = v

        # -beta([la,lb], lc) + beta([la,lc], lb) - beta([lb,lc], la)
        beta_coeff(a + b, c, -(b - a))
        beta_coeff(a + c, b, (c - a))
        beta_coeff(b + c, a, -(c - b))
        rows.append(row)
        rhs.append(c_gv(("l", a), ("l", b), ("l", c)))
    sol = linalg.solve(rows, rhs, len(pairs))
    if sol is None:
        rep.extras["nontrivial"] = True
    else:
        rep.extras["nontrivial"] = False
        rep.record("nontriviality", ("solve",), Fraction(1))
    return rep
