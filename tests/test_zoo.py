"""The concrete families: truncated windows, named cocycles, verifiers.

Window conventions: a window bounds the arguments of an instance, not the
labels in between.  Every product is the global index formula, a dict of
exact values whose empty form is an exact zero, so every instance whose
arguments lie in the window is decided, and every verifier below reports
nothing skipped.
"""

import copy
import functools
import itertools
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from antalg import cli, linalg, zoo
from antalg.antialgebra import CheckReport
from antalg.cohomology import (CochainBasis, DeltaContext, _cochain_keys,
                               delta_instance)
from antalg.core import common_denominator, divided
from antalg.zoo import DictVec, WindowCochain, WindowedAlgebra

F = Fraction

L = lambda k: ("l", F(k))
XI = lambda k: ("xi", F(k))
EPS = lambda k: ("eps", F(k))
A = lambda k: ("a", F(k))


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_window_construction_and_validation():
    w = WindowedAlgebra("ak1", 2)
    assert w.even == [EPS(n) for n in range(-2, 3)]
    assert w.odd == [A(F(i, 2)) for i in range(-3, 4, 2)]
    m = WindowedAlgebra("m1", 2)
    assert m.even[0] == EPS(0) and m.odd[0] == A(F(-1, 2))
    with pytest.raises(ValueError):
        WindowedAlgebra("nope", 2)
    with pytest.raises(ValueError):
        WindowedAlgebra("ak1", 0)
    assert w.labels2() == list(range(-4, 5, 2)) + list(range(-3, 4, 2))
    assert not hasattr(w, "mul") and not hasattr(w, "bracket")


@pytest.mark.parametrize("suite", sorted(cli._VERIFY))
def test_each_suite_raises_one_below_its_least_window(suite):
    """The least window radius of each suite is written once, in
    `zoo._WINDOW_RADII`, which `verify` reads too: the suite raises one
    below its entry and runs at it."""
    assert set(zoo._WINDOW_RADII) == set(cli._VERIFY)
    (least, _), fn = zoo._WINDOW_RADII[suite], cli._VERIFY[suite][0]
    with pytest.raises(ValueError, match=f"radius >= {least}$"):
        fn(least - 1)
    assert fn(least).checked > 0


@pytest.mark.parametrize("suite", sorted(cli._VERIFY))
def test_each_suite_raises_one_above_its_greatest_window(suite, monkeypatch):
    """The greatest radius sits beside the least one: above it the suite
    raises before it builds a window, however large the radius."""
    def no_window(*args):
        raise AssertionError(f"a window was built: {args}")

    greatest, fn = zoo._WINDOW_RADII[suite][1], cli._VERIFY[suite][0]
    monkeypatch.setattr(zoo, "WindowedAlgebra", no_window)
    for n in (greatest + 1, 10 ** 20):
        with pytest.raises(ValueError, match=f"radius <= {greatest}$"):
            fn(n)


def test_a_window_wider_than_every_suite_needs_is_refused():
    """`WindowedAlgebra` has a greatest radius of its own,
    `zoo._WINDOW_LIMIT`, which holds every window a suite builds: the 2N
    window at each suite's greatest radius and eta's N + 4 witness window.
    Above it, 10**20 included, the window raises ValueError before it
    builds a key list."""
    limit = zoo._WINDOW_LIMIT
    for least, greatest in zoo._WINDOW_RADII.values():
        assert least >= 1 and 2 * greatest <= limit
    assert zoo._WINDOW_RADII["eta"][1] + 4 <= limit
    for kind in ("ak1", "m1", "k1", "w1"):
        for n in (limit + 1, 10 ** 20):
            with pytest.raises(ValueError, match=rf"\[1, {limit}\]$"):
                WindowedAlgebra(kind, n)
    w = WindowedAlgebra("m1", limit)
    assert (w.even2[-1], w.odd2[-1]) == (2 * limit, 2 * limit - 1)


# the radii of the windows whose (family, Fraction) labels each suite reads
# at radius 5 (eta at 5 and 9, the axiom suites at 5 and 10, and gamma's
# 2N window read their int keys alone)
_LABEL_READS = {"gamma": [5], "eta": [], "gf": [5, 10], "dual-gf": [5, 10],
                "gv": [5, 10], "ak1-axioms": [], "m1-axioms": []}


@pytest.mark.parametrize("suite", sorted(_LABEL_READS))
def test_windows_build_their_labels_on_first_read(suite, monkeypatch):
    built = []

    class Recorded(WindowedAlgebra):
        def __init__(self, kind, N):
            super().__init__(kind, N)
            built.append(self)

    monkeypatch.setattr(zoo, "WindowedAlgebra", Recorded)
    cli._VERIFY[suite][0](5)
    assert built
    assert [w.even2[-1] // 2 for w in built
            if {"even", "odd"} & vars(w).keys()] == _LABEL_READS[suite]


def test_window_products_are_decided_beyond_the_window():
    """The products of labels of the N = 2 windows, at results inside the
    window and beyond it alike."""
    assert zoo.conf_mul(EPS(1), EPS(1)) == {EPS(2): F(1)}
    assert zoo.conf_mul(EPS(2), EPS(1)) == {EPS(3): F(1)}   # beyond
    assert zoo.conf_mul(A(F(1, 2)), A(F(1, 2))) == {}       # exact zero
    assert zoo.conf_mul(EPS(0), A(F(1, 2))) == {A(F(1, 2)): F(1, 2)}
    assert zoo.conf_mul(A(F(-1, 2)), A(F(3, 2))) == {EPS(1): F(1)}
    assert zoo.conf_mul(A(F(3, 2)), A(F(-1, 2))) == {EPS(1): F(-1)}
    assert zoo.conf_mul(EPS(2), A(F(3, 2))) == {A(F(7, 2)): F(1, 2)}
    assert zoo.k1_bracket(L(1), L(-1)) == {L(0): F(-2)}
    assert zoo.k1_bracket(XI(F(1, 2)), XI(F(1, 2))) == {L(1): F(2)}
    assert zoo.k1_bracket(L(2), L(1)) == {L(3): F(-1)}      # beyond
    assert zoo.w1_bracket(L(1), L(-1)) == {L(0): F(-2)}


def test_family_axiom_reports():
    ra = zoo.verify_ak1_axioms(4)
    assert ra.ok and (ra.checked, ra.skipped) == (2009, 0)
    rm = zoo.verify_m1_axioms(4)
    assert rm.ok and (rm.checked, rm.skipped) == (385, 0)


@pytest.mark.parametrize("kind", ["ak1", "m1"])
def test_axiom_suites_decide_every_window_instance(kind):
    """Each suite checks every instance of its window: |E|^3 assoc,
    |E|^2 |O| half_unit, |E| |O|^2 leibniz and C(|O|, 3) cyclic ones, with
    (|E|, |O|) = (2N + 1, 2N) on ak1 and (N + 1, N + 1) on m1."""
    suite = zoo.verify_ak1_axioms if kind == "ak1" else zoo.verify_m1_axioms
    counts = {}
    for N in range(1, 8):
        e, o = (2 * N + 1, 2 * N) if kind == "ak1" else (N + 1, N + 1)
        rep = suite(N)
        assert rep.ok and rep.skipped == 0, N
        assert rep.checked == (e ** 3 + e * e * o + e * o * o
                               + math.comb(o, 3)), N
        counts[N] = rep.checked
    assert (counts[4], counts[7]) == ((2009, 9829) if kind == "ak1"
                                      else (385, 1592))


def test_dual_action_is_the_signed_transpose_of_the_product():
    for kind in ("ak1", "m1"):
        w = WindowedAlgebra(kind, 2)
        for u in w.labels():
            pu = zoo.conf_parity(u)
            for l in w.labels():
                sign = F(-1) ** (zoo.conf_parity(l) * pu)
                acted = zoo.dual_act(kind, u, (l[0] + "*", l[1]))
                for v in w.labels():
                    lhs = acted.get((v[0] + "*", v[1]), F(0))
                    assert lhs == sign * zoo.conf_mul(u, v).get(l, F(0))


def test_m1_dual_action_is_not_a_module():
    """The signed-transpose action on the dual fails the half-unit law
    e1.(e2.y) = 1/2 (e1.e2).y of the semidirect sum m1 |x m1* when one of
    the even arguments is a dual vector v: x.(v.y) = 1/2 (x.v).y and
    v.(x.y) = 1/2 (v.x).y, with x even and y odd in m1 (v.y = y.v and
    v.x = x.v since v is even).  The law for two even actors, x1.(x2.u) =
    (x1.x2).u on even u and 1/2 (x1.x2).u on odd u, does hold."""
    w = WindowedAlgebra("m1", 2)

    def drho(u, xi):
        out = {}
        for dl, c in xi.items():
            for k2, c2 in zoo.dual_act("m1", u, dl).items():
                out[k2] = out.get(k2, F(0)) + c * c2
        return {k: v for k, v in out.items() if v}

    def drho_by(prod, xi):
        out = {}
        for pl, pc in prod.items():
            for k2, c2 in drho(pl, xi).items():
                out[k2] = out.get(k2, F(0)) + pc * c2
        return out

    def residual(lhs, rhs, weight):
        diff = dict(lhs)
        for k2, c2 in rhs.items():
            diff[k2] = diff.get(k2, F(0)) - weight * c2
        return {k: v for k, v in diff.items() if v}

    failures = []
    for x in w.even:
        for l in w.even:
            dl = (l[0] + "*", l[1])
            v = {dl: F(1)}
            for y in w.odd:
                half_xv_y = drho(y, drho(x, v))
                x_vy = drho(x, drho(y, v))
                v_xy = drho_by(zoo.conf_mul(x, y), v)
                for inst, lhs in (((x, dl, y), x_vy), ((dl, x, y), v_xy)):
                    diff = residual(lhs, half_xv_y, F(1, 2))
                    if diff:
                        failures.append((inst, diff))
    assert len(failures) == 18
    # x.v = eps*_{-1} lies below the floor and is 0, while v.y = y.v =
    # 1/2 a*_{1/2} and x.(1/2 a*_{1/2}) = 1/4 a*_{-1/2}
    assert failures[0] == (
        (EPS(1), ("eps*", F(0)), A(F(-1, 2))), {("a*", F(-1, 2)): F(1, 4)})

    parity_matched = []
    for x1 in w.even:
        for x2 in w.even:
            for l in w.labels():
                u = {(l[0] + "*", l[1]): F(1)}
                weight = F(1) if zoo.conf_parity(l) == 0 else F(1, 2)
                if residual(drho(x1, drho(x2, u)),
                            drho_by(zoo.conf_mul(x1, x2), u), weight):
                    parity_matched.append((x1, x2, l))
    assert parity_matched == []


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_values():
    assert zoo.gamma_value(EPS(2)).c == {("eps*", F(-2)): F(-2)}
    assert zoo.gamma_value(A(F(1, 2))).c == {}       # s(1/2) = 0
    assert zoo.gamma_value(A(F(3, 2))).c == {("a*", F(-3, 2)): F(2)}
    with pytest.raises(ValueError):
        zoo.gamma_value(("l", F(1)))


def test_gamma_is_a_nontrivial_cocycle():
    rep = zoo.verify_cocycle_gamma(6)
    assert rep.ok and rep.checked == 938 and rep.skipped == 0
    assert rep.extras["nontrivial"] is True


def test_gamma_single_entry_perturbations_are_caught():
    rt = zoo.verify_cocycle_gamma(
        6, t_fn=lambda n: -n + (1 if n == 1 else 0))
    assert not rt.ok and len(rt.violations) == 108
    assert rt.violations[0].kind == "cocycle[even-even]"
    rs = zoo.verify_cocycle_gamma(
        6, s_fn=lambda i: i * i - F(1, 4) + (1 if i == F(1, 2) else 0))
    assert not rs.ok and len(rs.violations) == 90
    assert rs.violations[0].kind == "cocycle[mixed]"


def _doubled_gamma(w, t_fn=None, s_fn=None):
    """(d gamma on the int keys (doubled indices) of the window ``w``, on
    ints, as the suite's nontriviality system reads it; d), d the common
    denominator of those values."""
    gam = {k: zoo._gamma2(k, t_fn or zoo._gamma_t, s_fn or zoo._gamma_s).c
           for k in w.labels2()}
    d = common_denominator(c for v in gam.values() for c in v.values())
    ig = {k: {l: int(c * d) for l, c in v.items()} for k, v in gam.items()}
    return ig.__getitem__, d


@pytest.mark.parametrize("t_fn", [None, lambda n: 0], ids=["default", "t=0"])
def test_gamma_nontriviality_verdict(t_fn):
    """The weight-0 slice system is inconsistent with the default gamma, and
    still with t = 0, where gamma has no even part and the odd rows
    decide."""
    w = zoo.WindowedAlgebra("ak1", 6)
    assert zoo._gamma_nontrivial(w, _doubled_gamma(w, t_fn)[0]) == (
        True, "no dual element bounds gamma (weight-0 slice inconsistent)")


# ---------------------------------------------------------------------------
# eta: the two-parameter family and its coboundary line
# ---------------------------------------------------------------------------

def test_eta_family_blocks():
    e10 = zoo.eta_family(F(1), F(0))
    assert e10.shapes() == [(0, 2)]
    assert e10.value(0, 2, (), (A(F(-1, 2)), A(F(1, 2)))).c == {
        ("eps*", F(0)): F(1)}
    e01 = zoo.eta_family(F(0), F(1))
    assert e01.value(2, 0, (EPS(0), EPS(0)), ()).c == {
        ("eps*", F(0)): F(-1, 2)}
    assert e01.value(1, 1, (EPS(0),), (A(F(1, 2)),)).c == {
        ("a*", F(-1, 2)): F(1, 2)}
    assert e01.value(1, 1, (EPS(0),), (A(F(-1, 2)),)).c == {
        ("a*", F(1, 2)): F(-1, 2)}


def test_eta_report_pins_the_failing_leg():
    """The first-parameter direction is closed; the second is not: its
    coboundary has exactly two nonzero decidable instances, with opposite
    quarter residuals on the swapped even pair."""
    rep = zoo.verify_cocycle_eta(4)
    assert not rep.ok
    assert rep.checked == 1016 and rep.skipped == 0
    assert len(rep.violations) == 2
    v1, v2 = rep.violations
    assert v1.kind == v2.kind == "cocycle(0,1)[2,1]"
    assert v1.instance == ((EPS(0), EPS(1)), (A(F(-1, 2)),))
    assert dict(v1.residual) == {("a*", F(-1, 2)): F(-1, 4)}
    assert v2.instance == ((EPS(1), EPS(0)), (A(F(-1, 2)),))
    assert dict(v2.residual) == {("a*", F(-1, 2)): F(1, 4)}
    assert rep.extras == {
        "coboundary_line": "lam = mu/2",
        "noncoboundary(0,1)": "inconsistent",
        "noncoboundary(1,0)": "inconsistent",
        "noncoboundary(1,1)": "inconsistent",
        "witness(1,2)": "verified",
        "witness(3/2,3)": "verified",
    }


def _doubled_first_entry(zeta):
    """zeta with its first (1,0)-entry doubled: a witness that fails."""
    blocks = {pq: dict(zeta.block(*pq)) for pq in zeta.shapes()}
    key, vec = next(iter(blocks[(1, 0)].items()))
    blocks[(1, 0)][key] = vec.scale(2)
    return WindowCochain(1, blocks)


def test_eta_report_flags_a_failing_witness(monkeypatch):
    """A witness whose coboundary misses its target is reported as failed,
    and its instances are carried as violations."""
    solve = zoo.eta_coboundary_solve

    def perturbed(N, target):
        zeta = solve(N, target)
        return None if zeta is None else _doubled_first_entry(zeta)

    monkeypatch.setattr(zoo, "eta_coboundary_solve", perturbed)
    rep = zoo.verify_cocycle_eta(4)
    for tag in ("witness(1,2)", "witness(3/2,3)"):
        assert rep.extras[tag] == "failed"
        assert any(v.kind.startswith(tag + "[") for v in rep.violations)


def test_a_consistent_off_line_solve_is_a_violation_at_solve(monkeypatch):
    """Only an inconsistent slice solve proves that no global preimage
    exists.  When the solve of an off-line target is made consistent, the
    report records a violation at ("solve",) for the target instead of
    calling it inconsistent."""
    solve = linalg.solve
    answers = []

    def consistent_for_11(rows, rhs, ncols):
        answers.append(solve(rows, rhs, ncols))
        if len(answers) == 5:  # (1,1), the last of the five targets
            assert answers[-1] is None
            return {}
        return answers[-1]

    monkeypatch.setattr(linalg, "solve", consistent_for_11)
    rep = zoo.verify_cocycle_eta(4)
    assert len(answers) == 5
    assert "noncoboundary(1,1)" not in rep.extras
    assert [v.instance for v in rep.violations
            if v.kind == "noncoboundary(1,1)"] == [("solve",)]
    assert rep.extras["noncoboundary(1,0)"] == "inconsistent"
    assert rep.extras["noncoboundary(0,1)"] == "inconsistent"
    assert rep.extras["witness(1,2)"] == "verified"


_UNORDERED_ODD = """\
from fractions import Fraction as F
from antalg.zoo import WindowCochain
try:
    WindowCochain(2, {(0, 2): {((), (("a", F(1, 2)), ("a", F(-1, 2)))):
                               {("eps*", F(0)): F(1)}}})
except ValueError as exc:
    print(exc)
"""


def test_window_cochain_rejects_unordered_odd_arguments():
    """The canonical-order check is a ValueError, kept under python -O."""
    ys = (A(F(1, 2)), A(F(-1, 2)))
    with pytest.raises(ValueError, match="strictly increasing"):
        WindowCochain(2, {(0, 2): {((), ys): {("eps*", F(0)): F(1)}}})
    proc = subprocess.run([sys.executable, "-O", "-c", _UNORDERED_ODD],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "strictly increasing odd arguments" in proc.stdout


def test_window_cochain_checks_argument_and_value_parities():
    with pytest.raises(ValueError, match="parity 0"):
        WindowCochain(1, {(1, 0): {((EPS(0),), ()): {("a*", F(1, 2)): F(1)}}})
    with pytest.raises(ValueError, match="parity 1"):
        WindowCochain(2, {(1, 1): {((EPS(0),), (A(F(1, 2)),)):
                                   DictVec({("eps*", F(0)): F(1)})}})
    with pytest.raises(ValueError, match="not even"):
        WindowCochain(1, {(1, 0): {((A(F(1, 2)),), ()): {EPS(0): F(1)}}})


def test_window_adjoint_context_decides_escaping_values():
    ctx, _ = zoo.ak1_adjoint_ctx(2)
    v = DictVec({EPS(1): F(1), A(F(1, 2)): F(2)})
    # half the action on the even component, the action on the odd one
    assert ctx.m_x_val(EPS(1), v) == {EPS(2): F(1, 2), A(F(3, 2)): F(1)}
    # eps_2 . eps_1 and a_{3/2} . eps_1 leave the N = 2 window
    assert ctx.m_x_val(EPS(2), v) == {EPS(3): F(1, 2), A(F(5, 2)): F(1)}
    # the action on the even component, minus the action on the odd one
    assert ctx.m_val_y(v, A(F(3, 2))) == {A(F(5, 2)): F(1, 2), EPS(2): F(1)}
    assert ctx.m_alg(EPS(2), EPS(1)) == {EPS(3): F(1, 2)}
    assert ctx.m_alg(EPS(1), EPS(1)) == {EPS(2): F(1, 2)}


def test_delta_instance_is_decided_where_a_product_escapes():
    """c vanishes on eps_1, eps_2 and a_{3/2}, so at these instances every
    term of delta c is zero except the one fed a product that leaves the
    N = 2 window, which reads c at eps_3 or a_{7/2}."""
    ctx, _ = zoo.ak1_adjoint_ctx(2)
    c = WindowCochain(1, {(1, 0): {((EPS(0),), ()): {EPS(0): F(1)},
                                   ((EPS(3),), ()): {EPS(0): F(1)}},
                          (0, 1): {((), (A(F(1, 2)),)): {A(F(1, 2)): F(1)},
                                   ((), (A(F(7, 2)),)): {A(F(1, 2)): F(1)}}})
    assert ctx.m_alg(EPS(2), EPS(1)) == {EPS(3): F(1, 2)}
    assert zoo.delta_instance(ctx, c, 2, 0, (EPS(2), EPS(1)), ()).c == {
        EPS(0): F(1, 2)}
    assert ctx.m_alg(EPS(2), A(F(3, 2))) == {A(F(7, 2)): F(1, 2)}
    assert zoo.delta_instance(ctx, c, 1, 1, (EPS(2),), (A(F(3, 2)),)).c == {
        A(F(1, 2)): F(1, 2)}
    # products that stay in the window are decided
    assert zoo.delta_instance(ctx, c, 2, 0, (EPS(0), EPS(0)), ()).c == {
        EPS(0): F(-1, 2)}
    assert zoo.delta_instance(ctx, c, 1, 1, (EPS(0),), (A(F(1, 2)),)).c == {
        A(F(1, 2)): F(-1, 2)}


def test_eta_coboundary_solver_on_and_off_the_line():
    on = zoo.eta_coboundary_solve(4, zoo.eta_family(F(1), F(2)))
    assert isinstance(on, WindowCochain) and on.degree == 1
    assert zoo.eta_coboundary_solve(4, zoo.eta_family(F(1), F(0))) is None
    assert zoo.eta_coboundary_solve(4, zoo.eta_family(F(0), F(1))) is None


# ---------------------------------------------------------------------------
# the central-charge pairings on the Lie families
# ---------------------------------------------------------------------------

def test_central_pairing_values():
    assert zoo.c_gf(L(2), L(-2)) == F(6)
    assert zoo.c_gf(XI(F(3, 2)), XI(F(-3, 2))) == F(-8)
    assert zoo.c_gf(L(1), XI(F(-1, 2))) == F(0)
    assert zoo.C_gf_value(XI(F(3, 2))) == {("xi*", F(-3, 2)): F(-8)}
    assert zoo.C_gf_value(L(-2)) == {("l*", F(2)): F(-6)}


def test_central_pairing_vanishes_on_the_small_subalgebra():
    assert zoo.OSP_SPAN == (L(-1), L(0), L(1), XI(F(-1, 2)), XI(F(1, 2)))
    for u in zoo.OSP_SPAN:
        for v in zoo.OSP_SPAN:
            assert zoo.c_gf(u, v) == 0


def test_central_pairing_suite_and_perturbation():
    rep = zoo.verify_super_cocycle_gf(4)
    assert rep.ok and (rep.checked, rep.skipped) == (5227, 0)

    def bad(u, v):
        val = zoo.c_gf(u, v)
        if u == L(2) and v == L(-2):
            val += 1
        return val

    pert = zoo.verify_super_cocycle_gf(4, c_fn=bad)
    assert not pert.ok and len(pert.violations) == 32
    assert pert.violations[0].kind == "skew"


def test_dual_valued_pairing_suite_and_perturbation():
    rep = zoo.verify_dual_gf(4)
    assert rep.ok and (rep.checked, rep.skipped) == (9537, 0)

    def bad(label):
        out = dict(zoo.C_gf_value(label))
        if label == L(-2):
            out[("l*", F(2))] = out.get(("l*", F(2)), F(0)) + 1
        return out

    pert = zoo.verify_dual_gf(4, C_fn=bad)
    assert not pert.ok and len(pert.violations) == 38


def test_threefold_pairing_on_the_witt_window():
    assert zoo.c_gv(L(1), L(0), L(-1)) == F(-1)
    assert zoo.c_gv(L(2), L(0), L(-2)) == F(0)
    assert zoo.c_gv(L(2), L(1), L(-3)) == F(0)
    rep = zoo.verify_gv(5)
    assert rep.ok and (rep.checked, rep.skipped) == (41, 0)


def _c_gv_012(u, v, w):
    """The alternating 3-form supported on {l_0, l_1, l_2}."""
    idx = (u[1], v[1], w[1])
    if sorted(idx) != [F(0), F(1), F(2)]:
        return F(0)
    return F(zoo._perm_sign(tuple(sorted(range(3), key=idx.__getitem__))))


def _ref_gv_slice_rows(N, pairs):
    """4 delta beta at the increasing w1 window triples, for beta the sum
    of an unknown times l*_a ^ l*_b for each (l_a, l_b) of ``pairs``,
    through `w1_bracket` on labels, with the sign (-1)^{i+j} of each
    bracket term."""
    def beta(u, v):  # {column: coefficient}
        return {k: 1 if (u, v) == pair else -1
                for k, pair in enumerate(pairs) if {u, v} == set(pair)}

    rows = []
    for x, y, z in itertools.combinations(WindowedAlgebra("w1", N).even, 3):
        row: dict = {}
        for sign, (p, q), r in ((-1, (x, y), z), (1, (x, z), y),
                                (-1, (y, z), x)):
            for l, c in zoo.w1_bracket(p, q).items():
                for k, e in beta(l, r).items():
                    row[k] = row.get(k, 0) + 4 * sign * c * e
        rows.append({k: e for k, e in row.items() if e})
    return rows


# a form, its one increasing triple of value 1, and the skew pairs at its
# weight: c_gv at weight 0, where delta(l*_-1 ^ l*_1) is zero at every
# window triple, and the form on {l_0, l_1, l_2} at doubled weight 6
_GV_SLICES = {
    "c_gv": (zoo.c_gv, (L(-1), L(0), L(1)), [(L(-1), L(1))]),
    "012": (_c_gv_012, (L(0), L(1), L(2)),
            [(L(-1), L(4)), (L(0), L(3)), (L(1), L(2))]),
}


@pytest.mark.parametrize("which", list(_GV_SLICES))
@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
def test_gv_solves_on_the_weight_slice_of_c(N, which, solver_calls,
                                            monkeypatch):
    """One column per skew pair at the form's weight; the verdicts are
    those of the window system over every pair up to the 4N key ceiling."""
    form, support, pairs = _GV_SLICES[which]
    monkeypatch.setattr(zoo, "c_gv", form)
    nontrivial = zoo.verify_gv(N).extras["nontrivial"]
    triples = itertools.combinations(WindowedAlgebra("w1", N).even, 3)
    assert solver_calls == [(
        _ref_gv_slice_rows(N, pairs),
        [4 if t == support else 0 for t in triples], len(pairs))]
    assert nontrivial is (which == "c_gv" or N > 3)


def test_gv_cocycle_leg_sees_a_form_that_is_not_closed(monkeypatch):
    """The alternating 3-form supported on {l_0, l_1, l_2} is not closed:
    its only violation is -4 at (l_-1, l_0, l_1, l_3), which the sign
    (-1)^{i+j} of each bracket term decides (+4 without it)."""
    monkeypatch.setattr(zoo, "c_gv", _c_gv_012)
    rep = zoo.verify_gv(5)
    assert (rep.checked, rep.skipped) == (41, 0)
    cocycle = [(v.instance, v.residual) for v in rep.violations
               if v.kind == "cocycle"]
    assert cocycle == [((L(-1), L(0), L(1), L(3)), {"gv": F(-4)})]


# ---------------------------------------------------------------------------
# reference loops for the tabulated suites
# ---------------------------------------------------------------------------
#
# The suites tabulate their structure constants once per call.  These are
# the direct loops they replaced: every instance recomputes its brackets,
# products and signs through the global formulas.  Reports must agree
# exactly, down to each violation's residual and its repr.

def _k1_parity(label):
    return 0 if label[0] in ("l", "l*") else 1


def _ref_super_cocycle_gf(N, c_fn=None):
    c_fn = c_fn or zoo.c_gf
    rep = CheckReport(f"gf-2-cocycle[N={N}]")
    w = WindowedAlgebra("k1", N)

    def c_lin(first, z):
        return sum((co * c_fn(t, z) for t, co in first.items()), F(0))

    labels = w.labels()
    par = _k1_parity
    for X in labels:
        for Y in labels:
            sgn = F(-1) ** (par(X) * par(Y))
            rep.record("skew", (X, Y), c_fn(X, Y) + sgn * c_fn(Y, X))
    for X in labels:
        for Y in labels:
            for Z in labels:
                px, py, pz = (par(t) for t in (X, Y, Z))
                res = (F(-1) ** (px * pz) * c_lin(zoo.k1_bracket(X, Y), Z)
                       + F(-1) ** (py * px) * c_lin(zoo.k1_bracket(Y, Z), X)
                       + F(-1) ** (pz * py) * c_lin(zoo.k1_bracket(Z, X), Y))
                rep.record("cyclic", (X, Y, Z), res)
    for u in zoo.OSP_SPAN:
        for v in zoo.OSP_SPAN:
            rep.record("osp-vanishing", (u, v), c_fn(u, v))
    return rep


def _ref_dual_gf(N, C_fn=None):
    C_fn = C_fn or zoo.C_gf_value
    rep = CheckReport(f"gf-dual-1-cocycle[N={N}]")
    w = WindowedAlgebra("k1", N)
    probes = WindowedAlgebra("k1", 2 * N).labels()

    def pair(dvec, label):
        return dvec.get((label[0] + "*", label[1]), F(0))

    def pair_br(dvec, u, v):
        return sum((co * pair(dvec, t)
                    for t, co in zoo.k1_bracket(u, v).items()), F(0))

    for X in w.labels():
        for Y in w.labels():
            sgn = F(-1) ** (_k1_parity(X) * _k1_parity(Y))
            CX, CY = C_fn(X), C_fn(Y)
            Cbr = {}
            for t, co in zoo.k1_bracket(X, Y).items():
                for l, c in C_fn(t).items():
                    Cbr[l] = Cbr.get(l, F(0)) + co * c
            for Z in probes:
                res = (-sgn * pair_br(CY, X, Z) + pair_br(CX, Y, Z)
                       - sum((co * (F(1) if (l[0].rstrip("*"), l[1]) == Z
                                    else F(0))
                              for l, co in Cbr.items()), F(0)))
                rep.record("dual-cocycle", (X, Y, Z), res)
    return rep


def _ref_eval(fn, args):
    """Expand dict arguments linearly through fn(labels...) -> dict."""
    for i, a in enumerate(args):
        if isinstance(a, dict):
            total = {}
            for label, c in a.items():
                v = _ref_eval(fn, args[:i] + (label,) + args[i + 1:])
                total = _ref_add(total, _ref_scale(v, c))
            return total
    return fn(*args)


def _ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, F(0)) + c
    return {k: c for k, c in out.items() if c}


def _ref_sub(a, b):
    return _ref_add(a, {k: -c for k, c in b.items()})


def _ref_scale(a, c):
    return {k: v * c for k, v in a.items() if v * c}


def _ref_conf_axioms(kind, N):
    """The four identities at every window instance, instance by instance,
    through the global product `zoo.conf_mul`."""
    w = WindowedAlgebra(kind, N)
    rep = CheckReport(f"{kind}-axioms[N={N}]")

    def prod(u, v):
        return _ref_eval(zoo.conf_mul, (u, v))

    ev, od = w.even, w.odd
    for x1, x2, x3 in itertools.product(ev, repeat=3):
        rep.record("assoc", (x1, x2, x3),
                   _ref_sub(prod(x1, prod(x2, x3)), prod(prod(x1, x2), x3)))
    for x1, x2 in itertools.product(ev, repeat=2):
        for y in od:
            rhs = _ref_scale(prod(prod(x1, x2), y), zoo.HALF)
            rep.record("half_unit", (x1, x2, y),
                       _ref_sub(prod(x1, prod(x2, y)), rhs))
    for x in ev:
        for y1, y2 in itertools.product(od, repeat=2):
            rhs = _ref_add(prod(prod(x, y1), y2), prod(y1, prod(x, y2)))
            rep.record("leibniz", (x, y1, y2),
                       _ref_sub(prod(x, prod(y1, y2)), rhs))
    for y1, y2, y3 in itertools.combinations(od, 3):
        total = _ref_add(_ref_add(prod(y1, prod(y2, y3)),
                                  prod(y2, prod(y3, y1))),
                         prod(y3, prod(y1, y2)))
        rep.record("cyclic", (y1, y2, y3), total)
    return rep


def _ref_gamma_residual(gfn, u, v):
    """gamma(u.v) - rho_u gamma(v) - (-1)^{|u||v|} rho_v gamma(u), as a
    chain of `DictVec` sums."""
    sign = F(-1) ** (zoo.conf_parity(u) * zoo.conf_parity(v))
    total = DictVec()
    for l, c in zoo.conf_mul(u, v).items():
        total = total.add(gfn(l).scale(c))
    for l, c in gfn(v).items():
        total = total.sub(DictVec(zoo.dual_act("ak1", u, l)).scale(c))
    for l, c in gfn(u).items():
        total = total.sub(DictVec(zoo.dual_act("ak1", v, l)).scale(sign * c))
    return total


def _ref_gamma_system(N, gfn):
    """The rows, right-hand sides and column count of the window system
    over the dual elements of the window, one `dual_act` call per
    (component, variable), asserting only the rows whose preimage lies in
    the window: the verdict oracle of the weight-0 slice solve."""
    variables = [("eps*", F(m)) for m in range(-N, N + 1)]
    rows, rhs = [], []
    w = WindowedAlgebra("ak1", N)
    for x in w.even:
        target = gfn(x)
        for comp in sorted(target.c, key=lambda l: (str(l[0]), l[1])):
            rows.append({})
            rhs.append(target.c[comp])
    for y in w.odd:
        target = gfn(y)
        comps = set(target.c) | {
            l for b in variables for l in zoo.dual_act("ak1", y, b)}
        for comp in sorted(comps, key=lambda l: (str(l[0]), l[1])):
            if abs(comp[1] + y[1]) > N:
                continue
            rows.append({k: c for k, b in enumerate(variables)
                         if (c := DictVec(zoo.dual_act("ak1", y, b)).coeff(comp))})
            rhs.append(target.coeff(comp))
    return rows, rhs, len(variables)


def _ref_gamma_slice(N, gfn):
    """The rows, right-hand sides and column count of the weight-0 slice
    solve: one unknown, the coefficient of eps*_0, one `dual_act` call per
    odd window label; at an even label the two even-even terms cancel."""
    rows, rhs = [], []
    for x in WindowedAlgebra("ak1", N).labels():
        rho = (zoo.dual_act("ak1", x, ("eps*", F(0)))
               if zoo.conf_parity(x) else {})
        target = gfn(x)
        for comp in sorted(set(rho) | set(target.c),
                           key=lambda l: (str(l[0]), l[1])):
            rows.append({0: rho[comp]} if comp in rho else {})
            rhs.append(target.coeff(comp))
    return rows, rhs, 1


def _ref_cocycle_gamma(N, t_fn=None, s_fn=None):
    rep = CheckReport(f"gamma-cocycle[N={N}]")
    w = WindowedAlgebra("ak1", N)

    def gfn(label):
        return zoo.gamma_value(label, t_fn, s_fn)

    kinds = {(0, 0): "even-even", (0, 1): "mixed", (1, 1): "odd-odd"}
    for u in w.labels():
        for v in w.labels():
            kind = kinds[tuple(sorted((zoo.conf_parity(u), zoo.conf_parity(v))))]
            rep.record(f"cocycle[{kind}]", (u, v),
                       _ref_gamma_residual(gfn, u, v).c)
    t_fn0 = t_fn or (lambda n: -n)
    s_fn0 = s_fn or (lambda i: i * i - F(1, 4))
    for n in range(-N, N + 1):
        for m in range(-N, N + 1):
            rep.record("t-additive", (n, m),
                       F(t_fn0(n + m)) - F(t_fn0(n)) - F(t_fn0(m)))
    half_idx = [i for _, i in w.odd]
    for i in half_idx:
        for j in half_idx:
            rep.record("s-relation", (i, j),
                       F(s_fn0(i)) - F(s_fn0(j)) - (j - i) * F(t_fn0(i + j)))
    if linalg.solve(*_ref_gamma_system(N, gfn)) is None:
        nontrivial, detail = (
            True, "no dual element bounds gamma (weight-0 slice inconsistent)")
    else:
        nontrivial, detail = False, "a weight-0 dual element bounds gamma"
    rep.extras["nontrivial"] = nontrivial
    rep.extras["nontrivial_detail"] = detail
    if not nontrivial:
        rep.record("nontriviality", ("solve",), F(1))
    return rep


class _RefEtaRows:
    """Accumulates the left side of one vector equation delta zeta
    (instance) = target as scalar rows indexed by dual components."""

    def __init__(self, dual_even, dual_odd, arg_window):
        self.dual_even = dual_even
        self.dual_odd = dual_odd
        self.arg_window = arg_window  # labels with known table values
        self.rows = {}  # comp -> {var: coeff}

    def _ws(self, arg):
        return self.dual_even if zoo.conf_parity(arg) == 0 else self.dual_odd

    def zeta(self, arg, scale):
        """+ scale * zeta(arg), for an arg inside the window."""
        if arg not in self.arg_window:
            return
        for w in self._ws(arg):
            tbl = self.rows.setdefault(w, {})
            tbl[(arg, w)] = tbl.get((arg, w), F(0)) + scale

    def act(self, actor, arg, scale):
        """+ scale * rho_actor zeta(arg)."""
        if arg not in self.arg_window:
            return
        for w in self._ws(arg):
            for comp, c in zoo.dual_act("m1", actor, w).items():
                tbl = self.rows.setdefault(comp, {})
                tbl[(arg, w)] = tbl.get((arg, w), F(0)) + scale * c


def _ref_eta_linear_system(N, target, mode):
    """The window systems of "delta zeta = target" that `verify eta` solved
    before its weight slices, over the variables zeta(u) at window
    arguments u and dual labels up to D = N + 2, on (family, Fraction)
    labels.  Mode "table": every instance of the margin window D + 2, so a
    solution bounds the target globally.  Mode "sound": the instances
    whose arguments and product stay in the window, at dual components up
    to D - N - 1, which every global zeta satisfies, so inconsistency
    rules out every global preimage."""
    D = N + 2
    walg = WindowedAlgebra("m1", N)
    dual_even = [("eps*", F(m)) for m in range(0, D + 1)]
    dual_odd = [("a*", F(2 * k - 1, 2)) for k in range(D + 1)]
    variables = ([(u, w) for u in walg.even for w in dual_even]
                 + [(u, w) for u in walg.odd for w in dual_odd])
    vindex = {v: k for k, v in enumerate(variables)}
    arg_window = set(walg.labels())
    if mode == "table":
        inst = WindowedAlgebra("m1", D + 2)
        comp_bound = None
    else:
        inst = walg
        comp_bound = F(D - N - 1)
    rows, rhs, seen = [], [], set()

    def harvest(builder, tvec):
        comps = set(builder.rows) | set(tvec.c)
        for comp in sorted(comps, key=lambda l: (str(l[0]), l[1])):
            if comp_bound is not None and comp[1] > comp_bound:
                continue
            row = {vindex[var]: co
                   for var, co in builder.rows.get(comp, {}).items() if co}
            b = tvec.coeff(comp)
            key = (tuple(sorted(row.items())), b)
            if key in seen:
                continue
            seen.add(key)
            if row or b:
                rows.append(row)
                rhs.append(b)

    def skip_product(prod):
        return mode == "sound" and any(l not in arg_window for l in prod)

    def builder():
        return _RefEtaRows(dual_even, dual_odd, arg_window)

    ev, od = inst.even, inst.odd
    for t1 in range(len(ev)):
        for t2 in range(t1, len(ev)):
            x0, x1 = ev[t1], ev[t2]
            prod = zoo.conf_mul(x0, x1)
            if skip_product(prod):
                continue
            rb = builder()
            for l, c in prod.items():
                rb.zeta(l, zoo.HALF * c)
            rb.act(x0, x1, -zoo.HALF)
            rb.act(x1, x0, -zoo.HALF)
            harvest(rb, target.value(2, 0, (x0, x1), ()))
    for x in ev:
        for y in od:
            prod = zoo.conf_mul(x, y)
            if skip_product(prod):
                continue
            rb = builder()
            for l, c in prod.items():
                rb.zeta(l, c)
            rb.act(x, y, F(-1))
            rb.act(y, x, F(-1))
            harvest(rb, target.value(1, 1, (x,), (y,)))
    for t1 in range(len(od)):
        for t2 in range(t1 + 1, len(od)):
            y0, y1 = od[t1], od[t2]
            prod = zoo.conf_mul(y0, y1)
            if skip_product(prod):
                continue
            rb = builder()
            for l, c in prod.items():
                rb.zeta(l, c)
            rb.act(y0, y1, F(-1))
            rb.act(y1, y0, F(1))
            harvest(rb, target.value(0, 2, (), (y0, y1)))
    return rows, rhs, variables


def _same_report(got, want):
    assert got.lines() == want.lines()
    assert [(v.kind, v.instance, type(v.residual), repr(v.residual))
            for v in got.violations] == [
        (v.kind, v.instance, type(v.residual), repr(v.residual))
        for v in want.violations]


def _bump_c(at, by=1):
    """c_gf with ``by`` added at the ordered pair ``at``."""
    def c_fn(u, v):
        return zoo.c_gf(u, v) + (by if (u, v) == at else 0)
    return c_fn


def _bump_C(label, comp, by=1):
    """C_gf_value with ``by`` added to component ``comp`` of C(label)."""
    def C_fn(l):
        out = dict(zoo.C_gf_value(l))
        if l == label:
            out[comp] = out.get(comp, F(0)) + by
        return out
    return C_fn


_GF_PERTURBATIONS = {
    "default": None,
    "pair": _bump_c((L(2), L(-2))),
    "odd-pair": _bump_c((XI(F(1, 2)), XI(F(3, 2))), F(1, 3)),
    # l_5 = [l_2, l_3] and xi_{7/2} = [l_1, xi_{5/2}] are bracket results
    # outside the N = 3 and N = 4 windows
    "bracket-outside": _bump_c((L(5), L(-2)), F(-2, 5)),
    "odd-bracket-outside": _bump_c((XI(F(7, 2)), L(-3))),
    # c([xi_1/2, xi_1/2], xi_1/2) = 2 c(l_1, xi_1/2) enters the instance
    # (xi_1/2, xi_1/2, xi_1/2) once per cyclic term, three times in all
    "diagonal": _bump_c((L(1), XI(F(1, 2)))),
    # not skew at most pairs of every parity: a symmetric form, whose
    # residuals cancel on odd pairs only, plus a form nonzero where xi is
    # on the left; skew residuals of denominators 1, 2, 3 and 6, and zeros
    # (at l_0 and on the odd diagonal) between them
    "not-skew": lambda u, v: (zoo.c_gf(u, v) + u[1] * v[1] / 3
                              + (v[1] / 2 if u[0] == "xi" else 0)),
}

_DUAL_GF_PERTURBATIONS = {
    "default": None,
    "label": _bump_C(L(-2), ("l*", F(2))),
    "odd-label": _bump_C(XI(F(1, 2)), ("xi*", F(5, 2)), F(2, 3)),
    # C_fn meets l_6 and l_7 only as brackets such as [l_3, l_3], and
    # their values pair only with probes of index beyond N
    "probe-outside": _bump_C(L(7), ("l*", F(-7)), F(-1, 4)),
    "probe-outside-2": _bump_C(L(6), ("l*", F(-5))),
}

# every perturbation at the default window; the default, the
# out-of-window ones and the one that is not skew also at N = 3, and the
# default and one of them at N = 5 (each reference call at N = 5 takes
# about a second)
_GF_CASES = ([(4, k) for k in _GF_PERTURBATIONS]
             + [(3, k) for k in ("default", "bracket-outside",
                                 "odd-bracket-outside", "not-skew")]
             + [(5, "default"), (5, "odd-bracket-outside")])
_DUAL_GF_CASES = ([(4, k) for k in _DUAL_GF_PERTURBATIONS]
                  + [(3, k) for k in ("default", "probe-outside")]
                  + [(5, "default"), (5, "probe-outside")])


@pytest.mark.parametrize("N,which", _GF_CASES)
def test_gf_suite_matches_the_reference_loops(N, which):
    c_fn = _GF_PERTURBATIONS[which]
    _same_report(zoo.verify_super_cocycle_gf(N, c_fn=c_fn),
                 _ref_super_cocycle_gf(N, c_fn))


@pytest.mark.parametrize("N,which", _DUAL_GF_CASES)
def test_dual_gf_suite_matches_the_reference_loops(N, which):
    C_fn = _DUAL_GF_PERTURBATIONS[which]
    _same_report(zoo.verify_dual_gf(N, C_fn=C_fn), _ref_dual_gf(N, C_fn))


def test_perturbations_reach_the_suites():
    """Each perturbation above is caught, so the comparisons cover reports
    with violations, not only clean ones."""
    for name, c_fn in _GF_PERTURBATIONS.items():
        assert zoo.verify_super_cocycle_gf(4, c_fn=c_fn).ok == (name == "default")
    for name, C_fn in _DUAL_GF_PERTURBATIONS.items():
        assert zoo.verify_dual_gf(4, C_fn=C_fn).ok == (name == "default")


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("kind", ["ak1", "m1"])
def test_axiom_suites_match_the_reference_loops(kind, N):
    fn = zoo.verify_ak1_axioms if kind == "ak1" else zoo.verify_m1_axioms
    _same_report(fn(N), _ref_conf_axioms(kind, N))


# terms added to conf_mul at ordered pairs: eps_0 is no longer a unit, eps_1
# squares to 2 eps_2 next to the window edge, and two odd products change,
# one of them into a sum of two labels
_CONF_BENDS = {
    (EPS(0), EPS(0)): {EPS(0): F(1)},
    (EPS(1), EPS(1)): {EPS(2): F(1)},
    (EPS(0), A(F(1, 2))): {A(F(1, 2)): F(1, 2)},
    (A(F(1, 2)), EPS(0)): {A(F(1, 2)): F(1, 2)},
    (A(F(-1, 2)), A(F(1, 2))): {EPS(0): F(1, 3)},
    (A(F(1, 2)), A(F(-1, 2))): {EPS(0): F(-1, 3)},
    (A(F(1, 2)), A(F(3, 2))): {EPS(1): F(2)},
    (A(F(3, 2)), A(F(1, 2))): {EPS(1): F(-2)},
}


def _bent_conf_mul4(u, v, conf_mul4=zoo._conf_mul4):
    """`zoo._conf_mul4`, 4 times the product on int keys that the axiom
    suites and `zoo.conf_mul` call, plus 4 times the terms of
    _CONF_BENDS."""
    out = dict(conf_mul4(u, v))
    at = (zoo._half(u, zoo._CONF), zoo._half(v, zoo._CONF))
    for l, c in _CONF_BENDS.get(at, {}).items():
        k = zoo._dbl(l, zoo._CONF)
        out[k] = out.get(k, 0) + 4 * c
    return {l: c for l, c in out.items() if c}


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("kind", ["ak1", "m1"])
def test_axiom_suites_match_the_reference_loops_on_a_bent_product(
        kind, N, monkeypatch):
    """The comparison above on a product that breaks all four identities,
    at instances whose products leave the window too."""
    monkeypatch.setattr(zoo, "_conf_mul4", _bent_conf_mul4)
    fn = zoo.verify_ak1_axioms if kind == "ak1" else zoo.verify_m1_axioms
    got = fn(N)
    _same_report(got, _ref_conf_axioms(kind, N))
    assert {v.kind for v in got.violations} == {
        "assoc", "half_unit", "leibniz", "cyclic"}
    assert not got.skipped and any(len(v.residual) > 1
                                   for v in got.violations)


@pytest.fixture
def solver_calls(monkeypatch):
    """A copy of the (rows, rhs, ncols) of every `linalg.solve` call."""
    calls = []
    solve = linalg.solve

    def recording(rows, rhs, ncols):
        calls.append(copy.deepcopy((rows, rhs, ncols)))
        return solve(rows, rhs, ncols)

    monkeypatch.setattr(linalg, "solve", recording)
    return calls


_GAMMA_PERTURBATIONS = {
    "default": (None, None),
    "t+1": (lambda n: -n + 1, None),
    "s-bump": (None, lambda i: i * i - F(1, 4) + (1 if i == F(1, 2) else 0)),
    "s-linear": (None, lambda i: i * i - F(1, 4) + i),
    # gamma = 0 is a coboundary: the verdict's other branch
    "zero": (lambda n: 0, lambda i: 0),
    # non-dyadic values: the suite clears gamma over a common denominator
    # d = 3 or 28, beyond the 4 of the structure constants
    "t/3": (lambda n: F(-n, 3), None),
    "s+1/7": (None, lambda i: i * i - F(1, 4) + (F(1, 7) if i == F(3, 2)
                                                  else 0)),
    # gamma = delta(eps*_0) on the odd labels: the one entry that the
    # weight-0 unknown bounds with a nonzero value
    "δε*₀": (lambda n: 0, lambda i: -i),
}


@pytest.mark.parametrize("which", list(_GAMMA_PERTURBATIONS))
@pytest.mark.parametrize("N", [2, 4, 6])
def test_gamma_suite_matches_the_reference_loops(N, which):
    t_fn, s_fn = _GAMMA_PERTURBATIONS[which]
    got = zoo.verify_cocycle_gamma(N, t_fn=t_fn, s_fn=s_fn)
    want = _ref_cocycle_gamma(N, t_fn, s_fn)
    _same_report(got, want)
    assert (got.checked, got.skipped, got.extras) == (
        want.checked, want.skipped, want.extras)
    assert [(v.kind, v.instance, v.residual) for v in got.violations] == [
        (v.kind, v.instance, v.residual) for v in want.violations]
    assert got.ok == (which == "default")


@pytest.mark.parametrize("which", list(_GAMMA_PERTURBATIONS))
@pytest.mark.parametrize("N", [2, 4, 6])
def test_gamma_nontriviality_system_matches_the_reference_loops(
        N, which, solver_calls):
    t_fn, s_fn = _GAMMA_PERTURBATIONS[which]

    def gfn(label):
        return zoo.gamma_value(label, t_fn, s_fn)

    w = zoo.WindowedAlgebra("ak1", N)
    ig, d = _doubled_gamma(w, t_fn, s_fn)
    nontrivial, _ = zoo._gamma_nontrivial(w, ig)
    # the reference system on ints: its rows times 4, its right-hand side
    # times 4d
    rows, rhs, ncols = _ref_gamma_slice(N, gfn)
    assert solver_calls == [([{0: 4 * c for c in row.values()} for row in rows],
                             [4 * d * b for b in rhs], ncols)]
    assert all(type(c) is int for c in (
        *(c for row in solver_calls[0][0] for c in row.values()),
        *solver_calls[0][1]))
    assert nontrivial is (linalg.solve(*_ref_gamma_system(N, gfn)) is None)
    sol = linalg.solve(*_ref_gamma_slice(N, gfn))
    assert sol == (None if nontrivial else {0: 1} if which == "δε*₀" else {})


_STRAY_ARGS = ((), (A(F(-1, 2)), A(F(1, 2))))

_ETA_TARGETS = {
    "(1,0)": lambda: zoo.eta_family(1, 0),
    "(0,1)": lambda: zoo.eta_family(0, 1),
    "(1,1)": lambda: zoo.eta_family(1, 1),
    "(1,2)": lambda: zoo.eta_family(1, 2),
    "(3/2,3)": lambda: zoo.eta_family(F(3, 2), 3),
    # off the line: with the (2,0)-coefficient +mu it is no coboundary
    "(1,2) ee=mu": lambda: zoo.eta_family(1, 2, even_even_coeff=2),
    # components that no coefficient row reaches: below the dual floor
    # (inside the sound bound) and beyond every window
    "stray": lambda: WindowCochain(2, {(0, 2): {_STRAY_ARGS: {
        ("eps*", F(-3)): F(1), ("eps*", F(40)): F(2)}}}),
}


def _eta_target(name):
    return _ETA_TARGETS[name]()


def _ref_delta_report(coch, shapes, window, kind_prefix, target=None):
    """delta coch (minus ``target``) at every instance of the given shapes
    from ``window``, in the exact Fraction context of the one-sided family
    on (family, Fraction) labels: the eta suite's coboundary report as it
    was computed before it moved to doubled labels and ints."""
    ctx = zoo.ConfDualDeltaCtx("m1")
    rep = CheckReport("inner")
    for (P, Q) in shapes:
        for xs in itertools.product(window.even, repeat=P):
            for ys in itertools.combinations(window.odd, Q):
                v = zoo.delta_instance(ctx, coch, P, Q, xs, ys)
                if target is not None:
                    v = v.sub(target.value(P, Q, xs, ys))
                rep.record(f"{kind_prefix}[{P},{Q}]", (xs, ys), v.c)
    return rep


def _eta_delta_cases():
    """(name, coch, shapes, window radius, target) of the coboundary
    reports that `verify_cocycle_eta` makes, at N = 2..5, and a witness
    that fails."""
    delta2 = [(3, 0), (2, 1), (1, 2), (0, 3)]
    for N in (2, 3, 4, 5):
        for lam, mu in ((1, 0), (0, 1)):
            yield (f"cocycle({lam},{mu})@{N}", zoo.eta_family(lam, mu),
                   delta2, N, None)
    for lam, mu in ((1, 2), (F(3, 2), 3)):
        target = zoo.eta_family(lam, mu)
        zeta = zoo.eta_coboundary_solve(4, target)
        for name, coch in (("", zeta), (" x2", zeta.scale(2))):
            yield (f"witness({lam},{mu}){name}", coch,
                   [(2, 0), (1, 1), (0, 2)], 8, target)


@pytest.mark.parametrize("case", list(_eta_delta_cases()),
                         ids=lambda case: case[0])
def test_eta_delta_reports_match_the_fraction_reference(case):
    """The integer coboundary report of the eta suite gives the checked and
    skipped counts and the violations, in order with their instances and
    residuals, of the exact Fraction computation."""
    name, coch, shapes, radius, target = case
    window = WindowedAlgebra("m1", radius)
    got = zoo._delta_report(coch, shapes, window, "k", target)
    want = _ref_delta_report(coch, shapes, window, "k", target)
    _same_report(got, want)
    assert (got.checked, got.skipped) == (want.checked, want.skipped)
    assert [(v.kind, v.instance, v.residual) for v in got.violations] == [
        (v.kind, v.instance, v.residual) for v in want.violations]
    assert bool(got.violations) == (name.endswith("x2")
                                    or name.startswith("cocycle(0,1)"))


def _full_window_delta_report(coch, shapes, window, kind_prefix,
                              target=None):
    """`zoo._delta_report` as it was before it evaluated only the instances
    that can carry a residual: delta coch (minus ``target``) through
    `delta_instance` at every window instance of the shapes, on int keys
    and ints, each one recorded."""
    rep = CheckReport("inner")
    ctx = zoo._m1_ctx()
    d = common_denominator(
        c for x in (coch, target) if x for pq in x.shapes()
        for v in x.block(*pq).values() for c in v.c.values())
    scale = ctx.scale(coch.degree) * d
    icoch = zoo._doubled_cochain(coch, d)
    itarget = target and zoo._doubled_cochain(target, scale)
    for (P, Q) in shapes:
        for xs in itertools.product(window.even2, repeat=P):
            for ys in itertools.combinations(window.odd2, Q):
                res = delta_instance(ctx, icoch, P, Q, xs, ys).c
                for l, c in (itarget.value(P, Q, xs, ys).items()
                             if target else ()):
                    res[l] = res.get(l, 0) - c
                rep.record(f"{kind_prefix}[{P},{Q}]", (xs, ys), res)
    for v in rep.violations:
        v.instance = tuple(tuple(zoo._half(k, zoo._CONF) for k in args)
                           for args in v.instance)
        v.residual = zoo._halved(divided(v.residual, scale), zoo._CONF_DUAL)
    return rep


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_the_eta_suite_matches_its_full_window_reports(N, monkeypatch):
    """`verify_cocycle_eta` evaluates delta only at the instances whose
    key sum can carry a residual, and its report is the one that
    evaluating every window instance gives: the same counts, and the same
    violations in the same order, with their instances and residuals."""
    got = zoo.verify_cocycle_eta(N)
    monkeypatch.setattr(zoo, "_delta_report", _full_window_delta_report)
    want = zoo.verify_cocycle_eta(N)
    _same_report(got, want)
    assert len(got.violations) == 2


def _two_weight_cases():
    """(name, coch, target) of reports off the suite's weight 0: a failing
    witness, a cochain of two weights against a target of a third, and a
    target with a value below the dual floor."""
    target = zoo.eta_family(1, 2)
    yield ("doubled-entry witness",
           _doubled_first_entry(zoo.eta_coboundary_solve(4, target)), target)
    two = WindowCochain(1, {  # doubled weights 0 and 2
        (1, 0): {((EPS(0),), ()): {("eps*", F(0)): F(1)}},
        (0, 1): {((), (A(F(1, 2)),)): {("a*", F(1, 2)): F(3, 2)}}})
    third = WindowCochain(2, {  # doubled weight 4
        (2, 0): {((EPS(1), EPS(1)), ()): {("eps*", F(0)): F(5)}},
        (1, 1): {((EPS(1),), (A(F(1, 2)),)): {("a*", F(1, 2)): F(-1, 3)}}})
    yield "two weights, target at a third", two, third
    below = WindowCochain(2, {  # doubled weight 12, valued below the floor
        (2, 0): {((EPS(4), EPS(4)), ()): {("eps*", F(-2)): F(1)}}})
    yield "target below the floor", two, below


@pytest.mark.parametrize("case", list(_two_weight_cases()),
                         ids=lambda case: case[0])
@pytest.mark.parametrize("radius", [4, 6, 8])
def test_delta_reports_off_weight_0_match_their_full_window_reports(
        case, radius):
    """Off the suite's one weight, and with a value below the floor that
    lowers the least output key, the report of the instances that can
    carry a residual is still that of every window instance."""
    name, coch, target = case
    shapes = [(2, 0), (1, 1), (0, 2)]
    window = WindowedAlgebra("m1", radius)
    got = zoo._delta_report(coch, shapes, window, "w", target)
    _same_report(got, _full_window_delta_report(coch, shapes, window, "w",
                                                  target))
    assert got.violations


def test_eta_slice_solve_agrees_with_the_window_systems():
    """The slice solve gives every target the verdict of the window systems
    that `verify eta` solved before it: no preimage where the sound system
    is inconsistent, and a preimage exactly where a finite table bounds the
    target, which the coboundary formulas verify over the margin window."""
    for N in (2, 3, 4):
        for name in _ETA_TARGETS:
            target = _eta_target(name)
            zeta = zoo.eta_coboundary_solve(N, target)
            solved = {}
            for mode in ("sound", "table"):
                rows, rhs, variables = _ref_eta_linear_system(N, target, mode)
                solved[mode] = linalg.solve(rows, rhs, len(variables))
            assert solved["sound"] is not None or zeta is None, (N, name)
            assert (zeta is None) == (solved["table"] is None), (N, name)
            assert (zeta is not None) == (name in ("(1,2)", "(3/2,3)"))
            if zeta is not None:
                assert zoo._delta_report(zeta, [(2, 0), (1, 1), (0, 2)],
                                         WindowedAlgebra("m1", N + 4), "w",
                                         target).ok, (N, name)


def _ref_eta_coefficients(N):
    """delta^1 of the dual-valued 1-cochain zeta by hand, as the eta
    suite's window rows were written before they came from
    `delta_instance`: on int keys, over 4 times the products and the
    action, with twice the weights of zeta(x0.x1), rho_x0 zeta(x1) and
    rho_x1 zeta(x0) on the (2,0), (1,1) and (0,2) instances.  The
    variables (u, w) are the window keys u with the dual keys w up to
    D = N + 2, and the instances those of the margin window D + 2 with
    x0 <= x1 on (2,0).  Returns ({(P, Q, xs, ys): {dual component:
    {variable: Fraction}}}, variables)."""
    D = N + 2
    walg = WindowedAlgebra("m1", N)
    dual = (range(0, 2 * D + 1, 2), range(-1, 2 * D, 2))
    variables = [(u, w) for u in walg.labels2() for w in dual[u & 1]]
    vindex = {v: k for k, v in enumerate(variables)}
    arg_window = set(walg.labels2())
    table = {}
    margin = WindowedAlgebra("m1", D + 2)
    ev, od = margin.even2, margin.odd2
    for key, x0, x1, (s, s01, s10) in itertools.chain(
            (((2, 0, (x0, x1), ()), x0, x1, (1, -1, -1))
             for t, x0 in enumerate(ev) for x1 in ev[t:]),
            (((1, 1, (x,), (y,)), x, y, (2, -2, -2)) for x in ev for y in od),
            (((0, 2, (), (y0, y1)), y0, y1, (2, -2, 2))
             for t, y0 in enumerate(od) for y1 in od[t + 1:])):
        prod = zoo._conf_mul4(x0, x1)
        # (dual component, variable, 8 * coeff) of delta zeta at the
        # instance; a zeta-argument outside the window is the known zero
        terms = [(w, (l, w), s * c) for l, c in prod.items()
                 if l in arg_window for w in dual[l & 1]]
        terms += [(comp, (arg, w), sa * c)
                  for actor, arg, sa in ((x0, x1, s01), (x1, x0, s10))
                  if arg in arg_window for w in dual[arg & 1]
                  for comp, c in zoo._dual_act4(True, actor, w).items()]
        rows: dict = {}
        for comp, var, c in terms:
            row = rows.setdefault(comp, {})
            row[vindex[var]] = row.get(vindex[var], 0) + c
        table[key] = {comp: {k: F(c, 8) for k, c in row.items() if c}
                      for comp, row in rows.items()}
    return table, variables


def _m1_delta(k, slice_of, act):
    """delta^k of m1 between the key lists ``slice_of(k)`` and
    ``slice_of(k + 1)``, with the action ``act`` on int keys, from the one
    core that also assembles the finite tables."""
    ctx = DeltaContext(zoo._INT_BASIS, zoo._INT_BASIS, zoo._conf_mul4, act,
                       denominator=4)
    return zoo._delta_between(ctx, k, slice_of(k), slice_of(k + 1))


_FLOORED = functools.partial(zoo._dual_act4, True)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_eta_rows_match_the_hand_written_coboundary(N):
    """At every weight whose 1-cochains lie in the N window (doubled weight
    up to 2N - 2), the core's rows of delta^1 on the floored-dual slice are
    the rows the hand-written delta^1 gives at the same instances and dual
    components, and the core has a row wherever the hand-written one is
    nonzero at that weight.  At weight 0 these are the five keys of C^2
    that the eta family lives on."""
    table, variables = _ref_eta_coefficients(N)
    for weight in range(0, 2 * N - 1, 2):
        mat = _m1_delta(1, lambda k: zoo._m1_slice(k, [weight]), _FLOORED)
        column = {(xs + ys)[0]: (w, j)
                  for j, (p, q, xs, ys, w) in enumerate(mat.source.keys)}
        got = {}
        for (P, Q, xs, ys, w), row in zip(mat.target.keys, mat.full,
                                          strict=True):
            got[P, Q, tuple(sorted(xs)), ys, w] = row
        want = {}
        for (P, Q, xs, ys), comps in table.items():
            for w, row in comps.items():
                if sum(xs + ys) + w == weight:
                    want[P, Q, xs, ys, w] = {
                        column[variables[k][0]][1]: c for k, c in row.items()
                        if column[variables[k][0]][0] == variables[k][1]}
        assert {key: row for key, row in got.items() if row} == {
            key: row for key, row in want.items() if row}, weight
        assert set(want) <= set(got), weight


# the keys (p, q, xs, ys, w) of C^2 of m1 with floored dual coefficients,
# by doubled weight
_M1_SLICE_KEYS = {
    0: [(2, 0, (0, 0), (), 0), (1, 1, (0,), (-1,), 1), (1, 1, (0,), (1,), -1),
        (1, 1, (2,), (-1,), -1), (0, 2, (), (-1, 1), 0)],
    2: [(2, 0, (0, 0), (), 2), (2, 0, (0, 2), (), 0), (2, 0, (2, 0), (), 0),
        (1, 1, (0,), (-1,), 3), (1, 1, (0,), (1,), 1), (1, 1, (0,), (3,), -1),
        (1, 1, (2,), (-1,), 1), (1, 1, (2,), (1,), -1),
        (1, 1, (4,), (-1,), -1), (0, 2, (), (-1, 1), 2),
        (0, 2, (), (-1, 3), 0)],
    4: [(2, 0, (0, 0), (), 4), (2, 0, (0, 2), (), 2), (2, 0, (0, 4), (), 0),
        (2, 0, (2, 0), (), 2), (2, 0, (2, 2), (), 0), (2, 0, (4, 0), (), 0),
        (1, 1, (0,), (-1,), 5), (1, 1, (0,), (1,), 3), (1, 1, (0,), (3,), 1),
        (1, 1, (0,), (5,), -1), (1, 1, (2,), (-1,), 3), (1, 1, (2,), (1,), 1),
        (1, 1, (2,), (3,), -1), (1, 1, (4,), (-1,), 1),
        (1, 1, (4,), (1,), -1), (1, 1, (6,), (-1,), -1),
        (0, 2, (), (-1, 1), 4), (0, 2, (), (-1, 3), 2),
        (0, 2, (), (-1, 5), 0), (0, 2, (), (1, 3), 0)],
}


@pytest.mark.parametrize("weights", [[0], [2], [0, 2], [4]])
def test_m1_slice_keys_are_pinned(weights):
    """A slice of C^2 of m1 holds the keys of its weights weight by weight,
    each in `CochainBasis` order (at weight 0, the five keys that the eta
    family lives on).  Its instances are those of its keys, once each, in
    order of first appearance, and each key is indexed at its place."""
    basis = zoo._m1_slice(2, weights)
    keys = [key for weight in weights for key in _M1_SLICE_KEYS[weight]]
    assert basis.keys == keys
    instances = {}
    for p, q, xs, ys, _ in keys:
        if (xs, ys) not in instances.setdefault((p, q), []):
            instances[p, q].append((xs, ys))
    assert basis.instances == instances
    assert list(map(basis.index, keys)) == list(range(len(keys)))
    assert basis.alg is basis.mod is basis.degree is None


def test_eta_suite_makes_one_slice_solve_per_target(solver_calls):
    """verify eta makes one solver call per target, each on the rows of
    delta^1 from the three keys of C^1 at weight 0 to the five of C^2; only
    the two line members are solved."""
    rep = zoo.verify_cocycle_eta(4)
    mat = _m1_delta(1, lambda k: zoo._m1_slice(k, [0]), _FLOORED)
    calls = list(solver_calls)
    assert len(calls) == 5
    for rows, rhs, ncols in calls:
        assert (rows, ncols) == (mat.ints, 3) and len(rhs) == 5
    assert [linalg.solve(*call) is not None for call in calls] == [
        True, True, False, False, False]
    assert rep.extras["witness(1,2)"] == rep.extras["witness(3/2,3)"] == (
        "verified")


def test_eta_suite_builds_its_slice_matrix_once(monkeypatch):
    """The five targets of a verify eta run share one weight-0 delta^1:
    from a cold cache the run calls the matrix core once."""
    built = []
    core = zoo._delta_between

    def counting(*args):
        built.append(args[1])
        return core(*args)

    monkeypatch.setattr(zoo, "_delta_between", counting)
    zoo._m1_delta1.cache_clear()
    zoo.verify_cocycle_eta(4)
    zoo._m1_delta1.cache_clear()
    assert built == [1]


# doubled weight: (dims of C^1..C^4, ranks of delta^1..delta^4) of m1 with
# trivial coefficients
_TRIVIAL_SLICES = {
    0: ([1, 2, 2, 2], [1, 1, 1, 1]),
    2: ([1, 3, 5, 7], [1, 2, 3, 4]),
    4: ([1, 5, 10, 17], [1, 4, 7, 11]),
    8: ([1, 8, 24, 58], [1, 7, 20, 43]),
}


def _trivial_slice(weight):
    """The basis of the keys of C^k of m1 with trivial coefficients (output
    key 0) whose argument ints sum to ``weight``, in `CochainBasis` order,
    as `zoo._m1_slice` gives a slice."""
    def slice_of(k):
        return CochainBasis.from_keys(_cochain_keys(
            k, range(0, weight + k + 1, 2), range(-1, weight + k + 1, 2),
            lambda q, xs, ys: (0,) if q % 2 == 0 and sum(xs + ys) == weight
            else ()))
    return slice_of


def _squares(mats):
    """The nonzero entries of each delta^{k+1} delta^k, on integers."""
    return [sum(map(len, linalg.mat_mul(nxt.ints, cur.ints)))
            for cur, nxt in zip(mats, mats[1:])]


@pytest.mark.parametrize("weight", list(_TRIVIAL_SLICES))
def test_m1_trivial_slice_tables(weight):
    """The weight slices of m1's complex with trivial coefficients: δ² = 0
    through δ⁴δ³ at weights 0 and 2, and δ³δ² has two nonzero entries at
    weight 4, the d10.d10 failure of the block-ordered cochain model."""
    mats = [_m1_delta(k, _trivial_slice(weight), lambda a, l: {})
            for k in range(1, 5)]
    assert ([len(m.source.keys) for m in mats],
            [linalg.rank(m.ints) for m in mats]) == _TRIVIAL_SLICES[weight]
    squares = _squares(mats)
    if weight < 4:
        assert squares == [0, 0, 0]
    if weight == 4:
        assert squares[:2] == [0, 2]


def test_m1_floored_dual_slice_table_at_weight_0():
    """With floored dual coefficients at weight 0, dims C^1..C^4 are
    3 5 6 7 and the ranks 2 3 4 4.  δ²δ¹ is nonzero exactly at the two
    (2,1) instances that `verify eta` reports for eta(0,1), with the
    values of its residuals there: δ eta(0,1) = ½ δδ zeta for the witness
    zeta = 2 ε*₀ at ε₀, the first key of C^1."""
    mats = [_m1_delta(k, lambda k: zoo._m1_slice(k, [0]), _FLOORED)
            for k in range(1, 5)]
    assert [len(m.source.keys) for m in mats] == [3, 5, 6, 7]
    assert [linalg.rank(m.ints) for m in mats] == [2, 3, 4, 4]
    square = linalg.mat_mul(mats[1].full, mats[0].full)
    assert {mats[1].target.keys[i]: row for i, row in enumerate(square)
            if row} == {(2, 1, (0, 2), (-1,), -1): {0: F(-1, 4)},
                        (2, 1, (2, 0), (-1,), -1): {0: F(1, 4)}}


_SLICE_KINDS = {
    "floored": (lambda weights: lambda k: zoo._m1_slice(k, weights),
                _FLOORED),
    "trivial": (lambda weights: _trivial_slice(*weights), lambda a, l: {}),
}


@pytest.mark.parametrize("kind, weights", [
    *((kind, [w]) for kind in _SLICE_KINDS for w in range(9)),
    ("floored", [0, 2])], ids=lambda v: v if isinstance(v, str) else
    "+".join(map(str, v)))
def test_m1_slice_matrices_match_the_unit_cochain_columns(kind, weights):
    """Column j of delta^k on a weight slice of m1, k <= 3, is the pull
    formulas' coboundary of the j-th unit cochain, an int-key
    `WindowCochain`, read at every target instance in the integer
    `DeltaContext` of D = 4 (products and action times 4; unit L_k):
    exactly the scatter's integer column, and no value of the formulas
    falls outside the target keys."""
    slice_of, act = _SLICE_KINDS[kind]
    for k in (1, 2, 3):
        mat = _m1_delta(k, slice_of(weights), act)
        ctx = DeltaContext(zoo._INT_BASIS, zoo._INT_BASIS, zoo._conf_mul4,
                           act, denominator=4)
        for j, (p, q, xs, ys, l) in enumerate(mat.source.keys):
            unit = WindowCochain(k, {(p, q): {(xs, ys): {l: 1}}},
                                 zoo._INT_BASIS)
            column = {
                mat.target.index((P, Q, txs, tys, out)): c
                for (P, Q), instances in mat.target.instances.items()
                for txs, tys in instances
                for out, c in delta_instance(ctx, unit, P, Q, txs,
                                             tys).items()}
            assert column == {i: row[j] for i, row in enumerate(mat.ints)
                              if j in row}, (k, mat.source.keys[j])


def _weight_2_target():
    """delta(a_{1/2} -> a*_{1/2}): three entries, all of doubled weight 2."""
    return WindowCochain(2, {
        (1, 1): {((EPS(1),), (A(F(-1, 2)),)): {("a*", F(1, 2)): F(1, 2)},
                 ((EPS(1),), (A(F(1, 2)),)): {("a*", F(-1, 2)): F(-1, 2)}},
        (0, 2): {((), (A(F(-1, 2)), A(F(1, 2)))): {("eps*", F(1)): F(1, 2)}}})


def test_eta_solve_off_weight_0():
    """At weight 2 the target delta(a_{1/2} -> a*_{1/2}) has the preimage
    a_{1/2} -> a*_{1/2}, which the coboundary formulas verify; a target
    below the dual floor has none."""
    target = _weight_2_target()
    zeta = zoo.eta_coboundary_solve(4, target)
    assert zeta == WindowCochain(1, {(0, 1): {((), (A(F(1, 2)),)): {
        ("a*", F(1, 2)): F(1)}}})
    rep = zoo._delta_report(zeta, [(2, 0), (1, 1), (0, 2)],
                            WindowedAlgebra("m1", 6), "w", target)
    assert rep.ok and rep.checked == 119
    below = WindowCochain(2, {(2, 0): {((EPS(0), EPS(0)), ()): {
        ("eps*", F(-1)): F(1)}}})
    assert zoo.eta_coboundary_solve(4, below) is None


def test_no_state_survives_a_suite_call():
    clean_gf = zoo.verify_super_cocycle_gf(3)
    clean_dual = zoo.verify_dual_gf(3)
    assert clean_gf.ok and clean_dual.ok
    pert_gf = _GF_PERTURBATIONS["bracket-outside"]
    pert_dual = _DUAL_GF_PERTURBATIONS["label"]
    assert not zoo.verify_super_cocycle_gf(3, c_fn=pert_gf).ok
    assert not zoo.verify_dual_gf(3, C_fn=pert_dual).ok
    _same_report(zoo.verify_super_cocycle_gf(3), clean_gf)
    _same_report(zoo.verify_dual_gf(3), clean_dual)

    clean_gamma = zoo.verify_cocycle_gamma(4)
    assert clean_gamma.ok
    assert not zoo.verify_cocycle_gamma(4, t_fn=lambda n: -n + 1).ok
    again = zoo.verify_cocycle_gamma(4)
    _same_report(again, clean_gamma)
    assert again.extras == clean_gamma.extras

    # a solve on an off-line target in between leaves the suite's report
    # as it was
    clean_eta = zoo.verify_cocycle_eta(4)
    assert zoo.eta_coboundary_solve(4, _eta_target("(1,2) ee=mu")) is None
    again = zoo.verify_cocycle_eta(4)
    _same_report(again, clean_eta)
    assert again.extras == clean_eta.extras


# ---------------------------------------------------------------------------
# the boundary: integer keys inside the suites, Fraction labels outside
# ---------------------------------------------------------------------------

def _labels_in(obj):
    """Every (family, index) label in an instance, a residual or a
    cochain's argument tuples; ("eps", 2) == ("eps", F(2)), so a label
    whose index is an int passes an == comparison and only its type shows
    it."""
    if isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[0], str):
        yield obj
    elif isinstance(obj, (tuple, list, dict)):  # a dict by its keys
        for item in obj:
            yield from _labels_in(item)


def _perturbed_reports(monkeypatch):
    """A report with violations from each suite, under the perturbations
    of the reference-loop comparisons above."""
    for which in ("t+1", "s-bump"):
        t_fn, s_fn = _GAMMA_PERTURBATIONS[which]
        yield zoo.verify_cocycle_gamma(4, t_fn=t_fn, s_fn=s_fn)
    yield zoo.verify_cocycle_eta(4)
    yield zoo.verify_super_cocycle_gf(4, c_fn=_GF_PERTURBATIONS["pair"])
    yield zoo.verify_dual_gf(4, C_fn=_DUAL_GF_PERTURBATIONS["label"])
    with monkeypatch.context() as patch:
        patch.setattr(zoo, "c_gv", _c_gv_012)
        yield zoo.verify_gv(5)
    with monkeypatch.context() as patch:
        patch.setattr(zoo, "_conf_mul4", _bent_conf_mul4)
        yield zoo.verify_ak1_axioms(3)
        yield zoo.verify_m1_axioms(3)


def test_every_label_that_leaves_a_suite_has_a_fraction_index(monkeypatch):
    for rep in _perturbed_reports(monkeypatch):
        assert rep.violations, rep.title
        labels = [l for v in rep.violations
                  for l in itertools.chain(_labels_in(v.instance),
                                           _labels_in(v.residual))]
        assert labels, rep.title
        assert {type(idx) for _, idx in labels} == {Fraction}, rep.title


# a label whose family or index kind is not that of its slot, at each entry
# of a label into the suites, an index that is no int or Fraction (0.5,
# "1/2") among them; the dual_gf cases are C_fn values off the dual labels,
# l*_{1/3} and the unstarred l_3, and c_gv takes l labels only
_OFF_FAMILY_CALLS = {
    "conf_mul-eps-half": lambda: zoo.conf_mul(EPS(F(1, 2)), EPS(0)),
    "conf_mul-a-1": lambda: zoo.conf_mul(A(1), EPS(0)),
    "dual_act-eps-third": lambda: zoo.dual_act("m1", EPS(F(1, 3)),
                                             ("eps*", F(0))),
    "k1_bracket-xi-1": lambda: zoo.k1_bracket(XI(1), L(0)),
    "gamma_value-a-1": lambda: zoo.gamma_value(A(1)),
    "conf_mul-eps-float": lambda: zoo.conf_mul(("eps", 0.5), ("eps", 0)),
    "gamma_value-a-str": lambda: zoo.gamma_value(("a", "1/2")),
    "dual_gf-lstar-third": lambda: zoo.verify_dual_gf(
        4, C_fn=_bump_C(L(1), ("l*", F(1, 3)))),
    "dual_gf-unstarred": lambda: zoo.verify_dual_gf(
        4, C_fn=_bump_C(L(1), ("l", F(3)))),
    "c_gf-l-half": lambda: zoo.c_gf(L(F(1, 2)), L(F(-1, 2))),
    "c_gf-xi-1": lambda: zoo.c_gf(("xi", 1), ("xi", -1)),
    "C_gf_value-l-half": lambda: zoo.C_gf_value(L(F(1, 2))),
    "c_gv-eps": lambda: zoo.c_gv(EPS(-1), EPS(0), EPS(1)),
    "c_gv-xi-1": lambda: zoo.c_gv(XI(-1), L(0), L(1)),
    "c_gv-xi-half": lambda: zoo.c_gv(XI(F(-1, 2)), L(0), L(1)),
    "c_gv-l-half": lambda: zoo.c_gv(L(F(1, 2)), L(0), L(1)),
}


@pytest.mark.parametrize("which", list(_OFF_FAMILY_CALLS))
def test_a_label_off_its_family_is_rejected_where_it_enters(which):
    with pytest.raises(ValueError, match="not a label of"):
        _OFF_FAMILY_CALLS[which]()


def test_eta_solver_returns_fraction_labels():
    labels = []
    for target in (zoo.eta_family(1, 2), zoo.eta_family(F(3, 2), 3),
                   _weight_2_target()):
        zeta = zoo.eta_coboundary_solve(4, target)
        labels += [l for pq in zeta.shapes()
                   for (xs, ys), vec in zeta.block(*pq).items()
                   for l in itertools.chain(xs, ys, vec.c)]
    labels += itertools.chain.from_iterable(
        f(*args) for f, args in ((zoo.conf_mul, (A(F(1, 2)), A(F(3, 2)))),
                                 (zoo.dual_act, ("m1", A(F(1, 2)), ("eps*", F(3)))),
                                 (zoo.k1_bracket, (L(2), XI(F(1, 2)))),
                                 (zoo.w1_bracket, (L(2), L(-1)))))
    labels += WindowedAlgebra("m1", 2).labels()
    assert len(labels) > 10
    assert {type(idx) for _, idx in labels} == {Fraction}


# Fraction.__hash__ calls of one run of each suite at its default window,
# with eta's coefficient rows cold, while window labels were keyed by
# (family, Fraction): ak1-axioms 28,689, m1-axioms 5,478, gamma 15,149 and
# eta 28,381.  A Fraction rehashes on every dict or set access, so these
# counts are the cost of keying by Fractions; each ceiling is a tenth of
# that count.
_HASH_CEILINGS = {
    zoo.verify_ak1_axioms: 2868,
    zoo.verify_m1_axioms: 547,
    zoo.verify_cocycle_gamma: 1514,
    zoo.verify_cocycle_eta: 2838,
}


@pytest.mark.parametrize("suite", list(_HASH_CEILINGS),
                         ids=lambda f: f.__name__)
def test_window_suites_key_labels_by_integers(suite, monkeypatch):
    fraction_hash = Fraction.__hash__
    calls = []

    def counting(self):
        calls.append(None)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    hash(Fraction(1, 3))  # the count starts at one: the hook is live
    suite()
    monkeypatch.undo()
    assert 1 <= len(calls) <= 1 + _HASH_CEILINGS[suite]
