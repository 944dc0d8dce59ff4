"""The concrete families: truncated windows, named cocycles, verifiers.

Window conventions: a product dict is an exact value, the empty dict is an
exact zero, and None means the truncation cannot decide (support would
leave the window).  Every verifier below separates "checked" from
"skipped" along that line.
"""

import subprocess
import sys
from fractions import Fraction

import pytest

from antalg import zoo
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
    assert len(w.even) == 5 and len(w.odd) == 4
    m = WindowedAlgebra("m1", 2)
    assert m.even[0] == EPS(0) and m.odd[0] == A(F(-1, 2))
    with pytest.raises(ValueError):
        WindowedAlgebra("nope", 2)
    with pytest.raises(ValueError):
        WindowedAlgebra("ak1", 0)
    with pytest.raises(ValueError):
        w.bracket(L(1), L(0))        # bracket is for the Lie families
    with pytest.raises(ValueError):
        w.mul(EPS(5), EPS(0))        # arguments must lie in the window


def test_window_products_zero_versus_unknown():
    w = WindowedAlgebra("ak1", 2)
    assert w.mul(EPS(1), EPS(1)) == {EPS(2): F(1)}
    assert w.mul(EPS(2), EPS(1)) is None          # support escapes
    assert w.mul(A(F(1, 2)), A(F(1, 2))) == {}    # exact zero
    assert w.mul(EPS(0), A(F(1, 2))) == {A(F(1, 2)): F(1, 2)}
    assert w.mul(A(F(-1, 2)), A(F(3, 2))) == {EPS(1): F(1)}
    assert w.mul(A(F(3, 2)), A(F(-1, 2))) == {EPS(1): F(-1)}
    k = WindowedAlgebra("k1", 2)
    assert k.bracket(L(1), L(-1)) == {L(0): F(-2)}
    assert k.bracket(XI(F(1, 2)), XI(F(1, 2))) == {L(1): F(2)}
    assert k.bracket(L(2), L(1)) is None
    assert WindowedAlgebra("w1", 3).bracket(L(1), L(-1)) == {L(0): F(-2)}


def test_family_axiom_reports():
    ra = zoo.verify_ak1_axioms(4)
    assert ra.ok and (ra.checked, ra.skipped) == (973, 1036)
    rm = zoo.verify_m1_axioms(4)
    assert rm.ok and (rm.checked, rm.skipped) == (121, 264)


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


def test_eta_report_flags_a_failing_witness(monkeypatch):
    """A witness whose coboundary misses its target is reported as failed,
    and its instances are carried as violations."""
    solve = zoo.eta_coboundary_solve

    def perturbed(N, target):
        zeta = solve(N, target)
        if zeta is None:
            return None
        blocks = {pq: dict(zeta.block(*pq)) for pq in zeta.shapes()}
        key, vec = next(iter(blocks[(1, 0)].items()))
        blocks[(1, 0)][key] = vec.scale(2)
        return WindowCochain(1, blocks)

    monkeypatch.setattr(zoo, "eta_coboundary_solve", perturbed)
    rep = zoo.verify_cocycle_eta(4)
    for tag in ("witness(1,2)", "witness(3/2,3)"):
        assert rep.extras[tag] == "failed"
        assert any(v.kind.startswith(tag + "[") for v in rep.violations)


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


def test_window_adjoint_context_marks_escaping_values_unknown():
    ctx, _ = zoo.ak1_adjoint_ctx(2)
    v = DictVec({EPS(1): F(1), A(F(1, 2)): F(2)})
    # half the action on the even component, the action on the odd one
    assert ctx.m_x_val(EPS(1), v) == DictVec({EPS(2): F(1, 2),
                                              A(F(3, 2)): F(1)})
    assert ctx.m_x_val(EPS(2), v) is None       # eps_2 . eps_1 escapes
    assert ctx.m_val_y(v, A(F(3, 2))) is None   # a_{3/2} . eps_1 escapes
    assert ctx.m_alg(EPS(2), EPS(1)) is None
    assert ctx.m_alg(EPS(1), EPS(1)) == DictVec({EPS(2): F(1, 2)})


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
