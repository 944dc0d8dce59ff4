"""Axiom checkers, the zero-square criterion, and module constructions."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from antalg import antialgebra, brackets, zoo
from antalg.antialgebra import (
    AntialgebraStructure,
    CheckReport,
    adjoint_module,
    check_axioms,
    check_axioms_v2,
    dual_label,
    dual_module,
    semidirect,
    trivial_module,
    zero_square_check,
    ModuleStructure,
)
from antalg.core import (GradedSpace, MultiMap, Vector, divided,
                         parse_algebra_text)

F = Fraction

DATA = Path(__file__).resolve().parents[1] / "src" / "antalg" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _k3():
    doc = parse_algebra_text((DATA / "k3.alg").read_text())
    return AntialgebraStructure.from_file_doc(doc)


K3 = _k3()


# ---------------------------------------------------------------------------
# the tiny algebra: axioms hold, and the report counts are stable
# ---------------------------------------------------------------------------

def test_k3_passes_both_axiom_formulations():
    r1 = check_axioms(K3.space, K3.products, title="k3")
    assert r1.ok and r1.checked == 33 and not r1.skipped
    r2 = check_axioms_v2(K3.space, K3.products, title="k3")
    assert r2.ok and r2.checked == 40
    assert "status: pass" in r1.text()


def test_half_unit_perturbation_is_caught():
    bad = _half_unit_perturbed()
    rep = check_axioms(bad.space, bad.products)
    assert not rep.ok
    assert len(rep.violations) == 3
    first = rep.violations[0]
    assert first.kind == "half_unit"
    assert first.instance == ("eps", "eps", "a")
    assert dict(first.residual.items()) == {"a": F(1, 2)}


def test_doubled_odd_product_still_satisfies_the_axioms():
    # rescaling a.b only rescales eps-valued combinations that the
    # identities constrain homogeneously, so the perturbed table is a
    # genuinely valid structure (isomorphic to the original one).
    prods = K3.product_map()
    prods[("a", "b")] = {"eps": F(1)}
    prods[("b", "a")] = {"eps": F(-1)}
    doubled = AntialgebraStructure(K3.space, prods, name="doubled")
    assert check_axioms(doubled.space, doubled.products).ok
    assert zero_square_check(doubled)[0].ok


def test_structure_constructor_validates_parity_and_mirrors():
    sp = K3.space
    with pytest.raises(ValueError):
        AntialgebraStructure(sp, {("eps", "a"): {"eps": F(1)}})
    with pytest.raises(ValueError):
        AntialgebraStructure(sp, {("a", "b"): {"eps": F(1)},
                                  ("b", "a"): {"eps": F(1)}})


# ---------------------------------------------------------------------------
# raw ordered tables that the CLI cannot build
# ---------------------------------------------------------------------------

# skew13 breaks graded commutativity (y1.y2 = y2.y1, e.y3 != y3.e, y3.y3 !=
# 0), grading closure (y2.y3 = y1) and the half-unit law, and its cyclic
# residual is not alternating in the odd arguments; the other three tables
# have the degenerate shapes (1|0), (0|2) and (0|0)
RAW_TABLES = {
    "skew13": (GradedSpace(("e",), ("y1", "y2", "y3")), {
        ("e", "e"): {"e": 1},
        ("e", "y1"): {"y1": F(1, 2)}, ("y1", "e"): {"y1": F(1, 2)},
        ("e", "y2"): {"y2": 1}, ("y2", "e"): {"y2": F(1, 2)},
        ("e", "y3"): {"y3": F(1, 2)}, ("y3", "e"): {"y3": F(1, 3)},
        ("y1", "y2"): {"e": 1}, ("y2", "y1"): {"e": 1},
        ("y2", "y3"): {"y1": 1}, ("y3", "y2"): {"y1": -1},
        ("y3", "y3"): {"e": F(2, 5)},
    }),
    "even10": (GradedSpace(("e",), ()), {("e", "e"): {"e": 2}}),
    "odd02": (GradedSpace((), ("y1", "y2")), {("y1", "y2"): {"y1": 1},
                                             ("y2", "y2"): {"y2": F(1, 3)}}),
    "empty00": (GradedSpace((), ()), {}),
}

# (checked, skipped, violations as "kind instance residual") of each checker
RAW_EXPECTED = {
    ("skew13", "check_axioms"): (72, 0, """
        commutativity e,y2 Vector(1/2*y2)
        commutativity e,y3 Vector(1/6*y3)
        commutativity y1,y2 Vector(2*e)
        commutativity y2,e Vector(-1/2*y2)
        commutativity y2,y1 Vector(2*e)
        grading y2,y3 Vector(1*y1)
        commutativity y3,e Vector(-1/6*y3)
        grading y3,y2 Vector(-1*y1)
        commutativity y3,y3 Vector(4/5*e)
        half_unit e,e,y2 Vector(1/2*y2)
        leibniz e,y1,y2 Vector(-1/2*e)
        leibniz e,y2,y1 Vector(-1/2*e)
        leibniz e,y2,y3 Vector(-1*y1)
        leibniz e,y3,y2 Vector(1*y1)
        cyclic y1,y1,y2 Vector(1*y1)
        cyclic y1,y2,y1 Vector(1*y1)
        cyclic y1,y2,y2 Vector(1*y2)
        cyclic y1,y2,y3 Vector(1/3*y3)
        cyclic y1,y3,y2 Vector(1/3*y3)
        cyclic y1,y3,y3 Vector(1/5*y1)
        cyclic y2,y1,y1 Vector(1*y1)
        cyclic y2,y1,y2 Vector(1*y2)
        cyclic y2,y1,y3 Vector(1/3*y3)
        cyclic y2,y2,y1 Vector(1*y2)
        cyclic y2,y3,y1 Vector(1/3*y3)
        cyclic y2,y3,y3 Vector(1/5*y2)
        cyclic y3,y1,y2 Vector(1/3*y3)
        cyclic y3,y1,y3 Vector(1/5*y1)
        cyclic y3,y2,y1 Vector(1/3*y3)
        cyclic y3,y2,y3 Vector(1/5*y2)
        cyclic y3,y3,y1 Vector(1/5*y1)
        cyclic y3,y3,y2 Vector(1/5*y2)
        cyclic y3,y3,y3 Vector(2/5*y3)
    """),
    ("skew13", "check_axioms_v2"): (85, 0, """
        commutativity e,y2 Vector(1/2*y2)
        commutativity e,y3 Vector(1/6*y3)
        commutativity y1,y2 Vector(2*e)
        commutativity y2,e Vector(-1/2*y2)
        commutativity y2,y1 Vector(2*e)
        grading y2,y3 Vector(1*y1)
        commutativity y3,e Vector(-1/6*y3)
        grading y3,y2 Vector(-1*y1)
        commutativity y3,y3 Vector(4/5*e)
        odd_deriv e,e,y2 Vector(-1/2*y2)
        odd_deriv e,e,y3 Vector(1/12*y3)
        odd_deriv e,y1,y2 Vector(-3/2*e)
        odd_deriv e,y2,y1 Vector(-1/2*e)
        odd_deriv e,y2,y3 Vector(1*y1)
        odd_deriv e,y3,y2 Vector(-1*y1)
        odd_deriv e,y3,y3 Vector(-2/5*e)
        odd_deriv y1,e,y2 Vector(1/2*e)
        odd_deriv y1,y2,y1 Vector(1*y1)
        odd_deriv y1,y2,y3 Vector(1/2*y3)
        odd_deriv y1,y3,y2 Vector(-1/2*y3)
        odd_deriv y1,y3,y3 Vector(1/5*y1)
        odd_deriv y2,e,y3 Vector(1/2*y1)
        odd_deriv y2,y1,y2 Vector(3/2*y2)
        odd_deriv y2,y1,y3 Vector(1/2*y3)
        odd_deriv y2,y2,y1 Vector(-1/2*y2)
        odd_deriv y2,y3,y1 Vector(-1/2*y3)
        odd_deriv y2,y3,y3 Vector(1/5*y2)
        odd_deriv y3,e,y2 Vector(-5/6*y1)
        odd_deriv y3,e,y3 Vector(-1/15*e)
        odd_deriv y3,y1,y2 Vector(1/3*y3)
        odd_deriv y3,y1,y3 Vector(-1/5*y1)
        odd_deriv y3,y2,y1 Vector(1/3*y3)
        odd_deriv y3,y2,y3 Vector(-2/5*y2)
        odd_deriv y3,y3,y1 Vector(1/5*y1)
        odd_deriv y3,y3,y2 Vector(2/5*y2)
        odd_deriv y3,y3,y3 Vector(2/15*y3)
    """),
    ("even10", "check_axioms"): (3, 0, ""),
    ("even10", "check_axioms_v2"): (4, 0, ""),
    ("odd02", "check_axioms"): (16, 0, """
        commutativity y1,y2 Vector(1*y1)
        grading y1,y2 Vector(1*y1)
        commutativity y2,y1 Vector(1*y1)
        commutativity y2,y2 Vector(2/3*y2)
        grading y2,y2 Vector(1/3*y2)
        cyclic y1,y2,y2 Vector(1/3*y1)
        cyclic y2,y1,y2 Vector(1/3*y1)
        cyclic y2,y2,y1 Vector(1/3*y1)
        cyclic y2,y2,y2 Vector(1/3*y2)
    """),
    ("odd02", "check_axioms_v2"): (16, 0, """
        commutativity y1,y2 Vector(1*y1)
        grading y1,y2 Vector(1*y1)
        commutativity y2,y1 Vector(1*y1)
        commutativity y2,y2 Vector(2/3*y2)
        grading y2,y2 Vector(1/3*y2)
        odd_deriv y1,y2,y2 Vector(1/3*y1)
        odd_deriv y2,y2,y2 Vector(1/9*y2)
    """),
    ("empty00", "check_axioms"): (0, 0, ""),
    ("empty00", "check_axioms_v2"): (0, 0, ""),
}


@pytest.mark.parametrize("name,checker", list(RAW_EXPECTED))
def test_checkers_pin_raw_tables_the_cli_cannot_build(name, checker):
    space, table = RAW_TABLES[name]
    fn = {"check_axioms": check_axioms, "check_axioms_v2": check_axioms_v2}
    rep = fn[checker](space, table)
    checked, skipped, violations = RAW_EXPECTED[name, checker]
    assert (rep.checked, rep.skipped) == (checked, skipped)
    assert [f"{v.kind} {','.join(v.instance)} {v.residual!r}"
            for v in rep.violations] == [
        line.strip() for line in violations.strip().splitlines()]


@pytest.mark.parametrize("name", list(RAW_TABLES))
def test_the_table_report_leaves_the_integer_table_as_it_is(name):
    """`_TablePass.table` reads T without adding a row or an entry, also
    where a.b is nonzero and b.a is absent (odd02)."""
    space, table = RAW_TABLES[name]
    shared = antialgebra._TablePass(space, table)
    before = {a: dict(row) for a, row in shared.t.items()}
    assert shared.table.checked == 2 * len(space.labels()) ** 2
    assert {a: dict(row) for a, row in shared.t.items()} == before


# ---------------------------------------------------------------------------
# the dense oracle: every identity instance evaluated one at a time
# ---------------------------------------------------------------------------

def _dense_left(acc, row, v, c):
    """acc += c * (a.v) for a raw vector v and a's row ``row`` of T."""
    for l, w in v.items():
        prod = row.get(l)
        if prod:
            for out, z in prod.items():
                acc[out] = acc.get(out, 0) + c * w * z


def _dense_right(acc, t, v, b, c):
    """acc += c * (v.b) for a raw vector v, reading the rows of T."""
    for l, w in v.items():
        prod = t[l].get(b)
        if prod:
            for out, z in prod.items():
                acc[out] = acc.get(out, 0) + c * w * z


_SIX = antialgebra._AXIOMS + antialgebra._V2[1:]


def _dense_residuals(space, t):
    """Yield (kind, instance, acc, weight) for the six laws on every basis
    instance of the integer table T, in `itertools.product` order:
    the per-instance loops that the scatter of
    `antialgebra._identity_residuals` replaced.  acc is weight * D^2 times
    the law's residual, summed term by term in the order of
    `antialgebra._LAWS` (the cyclic sum at every rotation on its own)."""
    ev, od = tuple(space.even), tuple(space.odd)
    labels = ev + od
    for x1, x2, x3 in itertools.product(ev, ev, ev):
        acc = {}
        _dense_left(acc, t[x1], t[x2][x3], 1)
        _dense_right(acc, t, t[x1][x2], x3, -1)
        yield "assoc", (x1, x2, x3), acc, 1
    for x1, x2, y in itertools.product(ev, ev, od):
        acc = {}
        _dense_left(acc, t[x1], t[x2][y], 2)  # the weights 1, -1/2 times 2
        _dense_right(acc, t, t[x1][x2], y, -1)
        yield "half_unit", (x1, x2, y), acc, 2
    for x, y1, y2 in itertools.product(ev, od, od):
        acc = {}
        _dense_left(acc, t[x], t[y1][y2], 1)
        _dense_right(acc, t, t[x][y1], y2, -1)
        _dense_left(acc, t[y1], t[x][y2], -1)
        yield "leibniz", (x, y1, y2), acc, 1
    for y1, y2, y3 in itertools.product(od, od, od):
        acc = {}
        _dense_left(acc, t[y1], t[y2][y3], 1)
        _dense_left(acc, t[y2], t[y3][y1], 1)
        _dense_left(acc, t[y3], t[y1][y2], 1)
        yield "cyclic", (y1, y2, y3), acc, 1
    for x1, x2, a in itertools.product(ev, ev, labels):
        acc = {}
        _dense_left(acc, t[x1], t[x2][a], 1)
        _dense_left(acc, t[x2], t[x1][a], -1)
        yield "even_comm", (x1, x2, a), acc, 1
    for a, b, y in itertools.product(labels, labels, od):
        acc = {}
        _dense_right(acc, t, t[a][b], y, 1)
        _dense_right(acc, t, t[a][y], b, -1)
        _dense_left(acc, t[a], t[b][y], -1 if a in ev else 1)
        yield "odd_deriv", (a, b, y), acc, 1


def _dense_table_report(space, shared):
    """`_TablePass.table` with graded commutativity and grading closure
    recorded at every ordered pair, one at a time: the loop that the visit
    of the nonzero products replaced."""
    rep, t, d = CheckReport("table"), shared.t, shared.d
    for a, b in itertools.product(space.labels(), repeat=2):
        ab, ba = t[a][b], t[b][a]
        sign = (-1) ** (space.parity(a) * space.parity(b))
        res = {l: ab.get(l, 0) - sign * ba.get(l, 0) for l in {*ab, *ba}}
        rep.record("commutativity", (a, b), shared.residual(res, d))
        want = (space.parity(a) + space.parity(b)) % 2
        bad = {l: c for l, c in ab.items() if space.parity(l) != want}
        rep.record("grading", (a, b), shared.residual(bad, d))
    return rep


def _dense_report(space, table, title, kinds):
    """`check_axioms` (kinds `_AXIOMS`) or `check_axioms_v2` (kinds `_V2`)
    with every table pair and identity instance recorded one at a time."""
    shared = antialgebra._TablePass(space, table)
    rep, dd = CheckReport(title), shared.d ** 2
    rep.merge(_dense_table_report(space, shared))
    for kind, inst, acc, weight in _dense_residuals(space, shared.t):
        if kind in kinds:
            rep.record(kind, inst, shared.residual(acc, weight * dd))
    return rep


def _dense_square_report(structure):
    """`zero_square_check`'s report with every (xs, ys) at increasing ys
    recorded one at a time, from the bracket engine's [m, m]."""
    sp, m = structure.space, structure.m_blocks()
    square = brackets.al_bracket_blocks(m, m)
    rep = CheckReport(f"zero-square[{structure.name or '?'}]")
    for p, q in ((3, 0), (2, 1), (1, 2), (0, 3)):
        by_args = {}
        for (xs, ys, l), c in square.block(p, q).entries():
            by_args.setdefault((xs, ys), {})[l] = c
        for xs in itertools.product(sp.even, repeat=p):
            for ys in itertools.combinations(sp.odd, q):
                rep.record(f"square[{p},{q}]", (xs, ys),
                           Vector(sp, by_args.get((xs, ys), {})))
    return rep


def _same_report(got, want):
    assert got.lines() == want.lines()
    assert [(v.kind, v.instance, dict(v.residual.items()))
            for v in got.violations] == [
        (v.kind, v.instance, dict(v.residual.items()))
        for v in want.violations]


def _same_scatter(space, t, kinds=_SIX, increasing=()):
    """At every instance (at increasing ones for the ``increasing`` laws)
    the scatter's residual is the nonzero part of the dense one, with the
    same labels in the same order, and no other instance is nonzero; the
    numbers of instances that some product reaches (on the dense side) and
    of all instances."""
    got = antialgebra._identity_residuals(space, t, kinds, increasing)
    reached = total = 0
    for kind, inst, acc, _ in _dense_residuals(space, t):
        if kind not in kinds or (kind in increasing
                                 and not inst[0] < inst[1] < inst[2]):
            continue
        scattered = got[kind].pop(inst, {})
        assert list(scattered.items()) == [
            (l, c) for l, c in acc.items() if c], (kind, inst)
        reached, total = reached + bool(acc), total + 1
    assert not any(got.values())
    return reached, total


def _same_as_dense(structure):
    """Both checkers and the [m, m] report against the dense oracle, and
    the scatter against the dense residuals; the numbers of instances that
    some product reaches and of all instances."""
    sp, table = structure.space, structure.products
    _same_report(check_axioms(sp, table, title="t"),
                 _dense_report(sp, table, "t", antialgebra._AXIOMS))
    _same_report(check_axioms_v2(sp, table, title="t"),
                 _dense_report(sp, table, "t", antialgebra._V2))
    _same_report(zero_square_check(structure)[0],
                 _dense_square_report(structure))
    return _same_scatter(sp, antialgebra._integer_table(table)[0])


@pytest.mark.parametrize("name", list(RAW_TABLES))
def test_raw_tables_match_the_dense_oracle(name):
    space, table = RAW_TABLES[name]
    for kinds, fn in ((antialgebra._AXIOMS, check_axioms),
                      (antialgebra._V2, check_axioms_v2)):
        _same_report(fn(space, table, title="t"),
                     _dense_report(space, table, "t", kinds))
    _same_scatter(space, antialgebra._integer_table(table)[0])


def test_the_criterion_1_grid_matches_the_dense_oracle():
    tables = [K3.products] + [
        _family_table(*vals)
        for vals in itertools.product([F(0), F(1, 2), F(1), F(2)], repeat=4)]
    for table in tables:
        _same_as_dense(AntialgebraStructure(K3.space, table))


def _random_table(rng, n_even, n_odd):
    """A graded-commutative table with a random half of the free structure
    constants set to small random fractions."""
    sp, consts = _free_constants(n_even, n_odd)
    prods: dict = {}
    for a, b, l in consts:
        if rng.random() < 0.5:
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            prods.setdefault((a, b), {})[l] = c
    return AntialgebraStructure(sp, prods, name=f"rand{n_even}{n_odd}")


@pytest.mark.parametrize("n_even,n_odd", [(1, 2), (2, 2), (3, 3), (2, 4)])
def test_random_tables_match_the_dense_oracle(n_even, n_odd):
    rng = random.Random(1800 + 10 * n_even + n_odd)
    failing = 0
    for _ in range(6):
        st = _random_table(rng, n_even, n_odd)
        _same_as_dense(st)
        failing += not check_axioms(st.space, st.products).ok
    assert failing


@pytest.mark.parametrize("stem", ["k3t4p", "k3t4op", "k3t2rp"])
def test_golden_tables_match_the_dense_oracle(stem):
    doc = parse_algebra_text((GOLDEN / f"{stem}.alg").read_text())
    st = AntialgebraStructure.from_file_doc(doc)
    reached, total = _same_as_dense(st)
    assert 0 < reached < total  # instances no product reaches are skipped


def _bent(u, v, conf_mul4=zoo._conf_mul4):
    """`zoo._conf_mul4`, 4 times the product on int keys (doubled indices),
    plus 4 times eps_0 at eps_0.eps_0 and -+2 eps_1 at a_{+-1/2}.a_{3/2}
    and its mirror."""
    out = dict(conf_mul4(u, v))
    bend = {(0, 0): (0, 1), (1, 3): (2, -2), (3, 1): (2, 2),
            (-1, 3): (2, 2), (3, -1): (2, -2)}
    if (u, v) in bend:
        l, c = bend[u, v]
        out[l] = out.get(l, 0) + 4 * c
    return {l: c for l, c in out.items() if c}


class _GlobalConfTable:
    """The global conformal product as the table T that `_dense_residuals`
    reads, keyed by int keys: T[u][v] and T[u].get(v) are u.v, with
    `Fraction` coefficients, computed on each read through
    `zoo._conf_mul4` over 4."""

    class _Row:
        def __init__(self, u):
            self.u = u

        def get(self, v):
            return divided(zoo._conf_mul4(self.u, v), 4)

        __getitem__ = get

    def __getitem__(self, u):
        return self._Row(u)


@pytest.mark.parametrize("bent", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["ak1", "m1"])
def test_window_axiom_suites_match_the_dense_oracle(kind, N, bent,
                                                    monkeypatch):
    """The window's closure table through the scatter and the dense
    residuals of the same table, with the cyclic law at increasing
    instances only; and the suite's report against the dense oracle on the
    global product at every window instance, so the table holds every
    product an instance needs.  The bent product breaks the identities
    inside the window."""
    seen = []
    engine = antialgebra._identity_residuals

    def capture(*args):
        seen.append(args)
        return engine(*args)

    monkeypatch.setattr(antialgebra, "_identity_residuals", capture)
    if bent:
        monkeypatch.setattr(zoo, "_conf_mul4", _bent)
    got = zoo._conf_axiom_report(kind, N)
    [(space, t, kinds, increasing)] = seen
    assert (kinds, increasing) == (antialgebra._AXIOMS, ("cyclic",))
    _same_scatter(space, t, kinds, increasing)
    _same_scatter(space, t)  # all six laws, at every instance
    w = zoo.WindowedAlgebra(kind, N)
    assert (list(space.even), list(space.odd)) == (w.even2, w.odd2)
    labels = dict(zip(space.even + space.odd, w.labels()))
    want = CheckReport(got.title)
    for law, inst, acc, weight in _dense_residuals(space, _GlobalConfTable()):
        if law not in kinds or (law == "cyclic"
                                and not inst[0] < inst[1] < inst[2]):
            continue
        want.record(law, tuple(labels[k] for k in inst), {
            zoo._half(k, zoo._CONF): c
            for k, c in divided(acc, weight).items()})
    assert got.lines() == want.lines() and not got.skipped
    assert [(v.kind, v.instance, v.residual) for v in got.violations] == [
        (v.kind, v.instance, v.residual) for v in want.violations]
    assert got.ok != bent


# ---------------------------------------------------------------------------
# zero-square criterion
# ---------------------------------------------------------------------------

def test_square_of_k3_vanishes_only_after_alternation():
    """The raw self-bracket has a nonzero odd-odd-odd block whose
    alternation dies on repeated labels; the criterion lives on the
    alternated square."""
    m = K3.m_blocks()
    raw = brackets.bracket_blocks(m, m)
    b03 = raw.block(0, 3)
    assert dict(b03.entries()) == {
        ((), ("a", "b", "a"), "a"): F(1, 2),
        ((), ("b", "a", "a"), "a"): F(-1, 2),
        ((), ("a", "b", "b"), "b"): F(1, 2),
        ((), ("b", "a", "b"), "b"): F(-1, 2),
    }
    assert brackets.alt(b03).is_zero()
    rep, square = zero_square_check(K3)
    assert rep.ok and rep.checked == 4
    assert square.is_zero()


def _half_unit_perturbed():
    prods = K3.product_map()
    prods[("eps", "a")] = {"a": F(1)}
    prods[("a", "eps")] = {"a": F(1)}
    return AntialgebraStructure(K3.space, prods, name="bad")


_DOUBLED_ENGINE = """\
import sys
sys.path.insert(0, {tests!r})
from antalg import antialgebra, brackets
from test_antialgebra import _half_unit_perturbed
from antalg.antialgebra import zero_square_check
engine = brackets.al_bracket_blocks
brackets.al_bracket_blocks = lambda a, b: engine(a, b).scale(2)
try:
    zero_square_check(_half_unit_perturbed())
except AssertionError as exc:
    print(exc)
"""


def test_cross_check_catches_a_wrong_bracket_engine(monkeypatch):
    """A bracket engine that doubles [m,m] disagrees with the hand
    expansion; the check raises even under ``python -O``."""
    engine = brackets.al_bracket_blocks
    monkeypatch.setattr(brackets, "al_bracket_blocks",
                        lambda a, b: engine(a, b).scale(2))
    with pytest.raises(AssertionError, match=r"on block \(2,1\)"):
        zero_square_check(_half_unit_perturbed())
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         _DOUBLED_ENGINE.format(tests=str(Path(__file__).parent))],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "disagrees with direct expansion on block (2,1)" in proc.stdout


def test_cross_check_weighs_a_non_associative_even_part():
    """A (2|1) table with e.e = f and e.f = e: its even part is not
    associative, so [m,m] has a (3,0) block, -1/2 times the assoc residual
    (which the cross-check compares with the bracket engine)."""
    sp = GradedSpace(("e", "f"), ("y",))
    st = AntialgebraStructure(sp, {("e", "e"): {"f": 1}, ("e", "f"): {"e": 1}})
    rep, square = zero_square_check(st)
    assert dict(square.block(3, 0).entries()) == {
        (("e", "e", "f"), (), "f"): F(-1, 2),
        (("e", "f", "f"), (), "e"): F(1, 2),
        (("f", "e", "e"), (), "f"): F(1, 2),
        (("f", "f", "e"), (), "e"): F(-1, 2),
    }
    assert square.shapes() == [(3, 0)]
    assert (rep.checked, len(rep.violations)) == (12, 4)


def _free_constants(n_even, n_odd):
    """The space of shape (n_even|n_odd) and the free structure constants of
    a graded-commutative parity-preserving table on it: one (a, b, label)
    per unordered pair {a, b} (distinct when both are odd) and output
    label of parity |a| + |b|."""
    sp = GradedSpace([f"x{i}" for i in range(n_even)],
                     [f"y{i}" for i in range(n_odd)])
    labels = sp.labels()
    return sp, [(a, b, l) for i, a in enumerate(labels) for b in labels[i:]
                if not (a == b and sp.parity(a))
                for l in (sp.odd if sp.parity(a) != sp.parity(b) else sp.even)]


def _unit_and_pair_tables(n_even, n_odd):
    """Every unit table e_i and every e_i + e_j of the free constants."""
    sp, consts = _free_constants(n_even, n_odd)
    for i, j in itertools.combinations_with_replacement(range(len(consts)), 2):
        prods: dict = {}
        for a, b, l in {consts[i], consts[j]}:
            prods.setdefault((a, b), {})[l] = F(1)
        yield AntialgebraStructure(sp, prods)


@pytest.mark.parametrize("n_even,n_odd,constants", [
    (1, 2, 6), (2, 2, 16), (3, 3, 54), (2, 4, 50)])
def test_cross_check_weights_hold_on_a_polarization_basis(n_even, n_odd,
                                                          constants):
    """[m, m] is quadratic in the structure constants and so is each
    identity residual, so agreeing on every e_i and every e_i + e_j fixes
    the weights of `zero_square_check` on the whole shape: none may raise."""
    assert len(_free_constants(n_even, n_odd)[1]) == constants
    runs = 0
    for st in _unit_and_pair_tables(n_even, n_odd):
        zero_square_check(st)
        runs += 1
    assert runs == constants * (constants + 1) // 2


@pytest.mark.parametrize("kind,n_even,n_odd", [
    ("assoc", 2, 2), ("half_unit", 1, 2), ("leibniz", 1, 2),
    ("cyclic", 1, 3)])
def test_polarization_basis_catches_a_wrong_weight(monkeypatch, kind, n_even,
                                                   n_odd):
    """Doubling one weight of the cross-check makes some table of the
    polarization basis raise on that weight's block."""
    (p, q), weight = antialgebra._SQUARE_OF[kind]
    monkeypatch.setitem(antialgebra._SQUARE_OF, kind, ((p, q), 2 * weight))
    with pytest.raises(AssertionError, match=rf"on block \({p},{q}\)"):
        for st in _unit_and_pair_tables(n_even, n_odd):
            zero_square_check(st)


def test_structure_as_an_odd_element():
    m = K3.m_blocks()
    assert dict(m.block(2, 0).entries()) == {
        (("eps", "eps"), (), "eps"): F(1, 2)}
    assert dict(m.block(1, 1).value(("eps",), ("a",)).items()) == {
        "a": F(1, 2)}
    assert dict(m.block(0, 2).value((), ("a", "b")).items()) == {
        "eps": F(1, 2)}


def _ref_m_blocks(structure):
    """m as the library built it before it read the table's entries: every
    (x, y)-ordered label tuple of each block enumerated through `mul`."""
    sp, blocks = structure.space, {}
    for p, q in ((2, 0), (1, 1), (0, 2)):
        w = F(1, 2) if p == 2 else 1
        blocks[p, q] = MultiMap(sp, p, q, {
            (args[:p], args[p:], l): c * w
            for args in itertools.product(*(sp.even,) * p, *(sp.odd,) * q)
            for l, c in structure.mul(*args).items()})
    return brackets.BlockMap(sp, 2, blocks)


def _m_operands():
    """k3, every golden table, K3 |x ad(K3) and K3 |x ad(K3)*."""
    yield K3
    for path in sorted(GOLDEN.glob("*.alg")):
        yield AntialgebraStructure.from_file_doc(
            parse_algebra_text(path.read_text()))
    yield semidirect(adjoint_module(K3))
    yield semidirect(dual_module(adjoint_module(K3)))


def test_m_is_read_off_the_table_as_the_enumeration_gives_it():
    structures = list(_m_operands())
    assert len(structures) == 15
    for st in structures:
        m, want = st.m_blocks(), _ref_m_blocks(st)
        assert m == want, st.name
        assert all(type(c) is Fraction for _, mm in m.items()
                   for _, c in mm.entries())


def _family_table(al, be, ga, de):
    return {("eps", "eps"): {"eps": al},
            ("eps", "a"): {"a": be},
            ("eps", "b"): {"b": ga},
            ("a", "b"): {"eps": de}}


def test_axioms_and_zero_square_agree_on_a_table_family():
    """All 256 diagonal deformations of the tiny table: the two axiom
    formulations and the alternated-square criterion pick out the same 19
    valid structures."""
    vals = [F(0), F(1, 2), F(1), F(2)]
    n_valid = 0
    for al, be, ga, de in itertools.product(vals, repeat=4):
        st = AntialgebraStructure(K3.space, _family_table(al, be, ga, de))
        ok1 = check_axioms(st.space, st.products).ok
        ok2 = check_axioms_v2(st.space, st.products).ok
        okq = zero_square_check(st)[0].ok
        assert ok1 == ok2 == okq
        n_valid += ok1
    assert n_valid == 19


# ---------------------------------------------------------------------------
# modules: adjoint, trivial, dual, and the semidirect validity test
# ---------------------------------------------------------------------------

def test_adjoint_module_action_matches_the_products():
    adj = adjoint_module(K3)
    for a in K3.space.labels():
        for b in K3.space.labels():
            got = adj.act(a, ("ad", b))
            want = {("ad", l): c for l, c in K3.mul(a, b).items()}
            assert dict(got.items()) == want


def test_trivial_module_has_zero_action():
    triv = trivial_module(K3)
    assert triv.space.dim0 == 1 and triv.space.dim1 == 0
    assert all(triv.act(a, "triv").is_zero() for a in K3.space.labels())


def test_module_validity_via_semidirect_sums():
    for mod, nchecked in ((adjoint_module(K3), 192),
                          (trivial_module(K3), 64),
                          (dual_module(adjoint_module(K3)), 192)):
        sd = semidirect(mod)
        rep = check_axioms(sd.space, sd.products, title=sd.name)
        assert rep.ok and rep.checked == nchecked


def test_semidirect_rejects_label_clashes():
    clashing = ModuleStructure(K3, GradedSpace(("eps",), ()), {})
    with pytest.raises(ValueError):
        semidirect(clashing)


def test_module_action_must_preserve_parity():
    with pytest.raises(ValueError):
        ModuleStructure(K3, GradedSpace(("t",), ("s",)),
                        {("eps", "t"): {"s": F(1)}})


def test_dual_action_is_the_signed_transpose():
    adj = adjoint_module(K3)
    dual = dual_module(adj)
    base = K3.space
    for a in base.labels():
        pa = base.parity(a)
        for l in adj.space.labels():
            pl = adj.space.parity(l)
            for k in adj.space.labels():
                lhs = dual.act(a, dual_label(l)).coeff(dual_label(k))
                rhs = F(-1) ** (pl * pa) * adj.act(a, k).coeff(l)
                assert lhs == rhs


def test_double_dual_returns_the_action_up_to_the_parity_sign():
    """Under e -> (-1)^{|e|} e** the double dual is the original module."""
    adj = adjoint_module(K3)
    dd = dual_module(dual_module(adj))
    for a in K3.space.labels():
        for l in adj.space.labels():
            pl = adj.space.parity(l)
            lhs = {dual_label(dual_label(k)): F(-1) ** adj.space.parity(k) * c
                   for k, c in adj.act(a, l).items()}
            rhs = {k: F(-1) ** pl * c
                   for k, c in dd.act(a, dual_label(dual_label(l))).items()}
            assert lhs == rhs


def _ref_semidirect(module, name=""):
    """The semidirect sum as the library built it before it read the sparse
    tables: every (algebra, module) label pair through `act`, and its
    mirror with the sign written out."""
    base = module.base
    space = GradedSpace(base.space.even + module.space.even,
                        base.space.odd + module.space.odd)
    products = {ab: dict(coeffs) for ab, coeffs in base.products.items()}
    for a in base.space.labels():
        for v in module.space.labels():
            acted = dict(module.act(a, v).items())
            sign = F(-1) ** (base.space.parity(a) * module.space.parity(v))
            if acted:
                products[a, v] = acted
                products[v, a] = {l: sign * c for l, c in acted.items()}
    return AntialgebraStructure(space, products,
                                name=name or f"{base.name}|x{module.name}")


def _ref_adjoint_module(structure, tag="ad"):
    """The adjoint module through `mul`, one label pair at a time."""
    sp = structure.space
    mspace = GradedSpace(tuple((tag, l) for l in sp.even),
                         tuple((tag, l) for l in sp.odd))
    action = {}
    for a in sp.labels():
        for b in sp.labels():
            coeffs = {(tag, l): c for l, c in structure.mul(a, b).items()}
            if coeffs:
                action[a, (tag, b)] = coeffs
    return ModuleStructure(structure, mspace, action,
                           name=f"ad({structure.name})")


def _ref_dual_module(module):
    """The dual module, each entry read as ``act(a, k).coeff(l)``."""
    base, msp = module.base, module.space
    dspace = GradedSpace(tuple(dual_label(l) for l in msp.even),
                         tuple(dual_label(l) for l in msp.odd))
    action = {}
    for a in base.space.labels():
        for l in msp.labels():
            sign = F(-1) ** (msp.parity(l) * base.space.parity(a))
            coeffs = {dual_label(k): sign * c for k in msp.labels()
                      if (c := module.act(a, k).coeff(l))}
            if coeffs:
                action[a, dual_label(l)] = coeffs
    return ModuleStructure(base, dspace, action, name=f"dual({module.name})")


def _same_module(got, want):
    assert (got.base, got.space, got.name) == (want.base, want.space,
                                               want.name)
    assert got.action == want.action, got.name
    assert all(type(c) is Fraction for v in got.action.values()
               for c in v.values())


def _same_structure(got, want):
    assert (got.space, got.name) == (want.space, want.name)
    assert got.products == want.products, got.name
    assert all(type(c) is Fraction for v in got.products.values()
               for c in v.values())


def test_module_constructors_match_their_label_loop_forms():
    """On k3 and every golden table: the adjoint module, its dual and
    double dual, and the semidirect sums with each of them (K3 |x ad(K3)
    among them) are the tables the label loops give, signs included."""
    structures = [K3] + [AntialgebraStructure.from_file_doc(
        parse_algebra_text(path.read_text()))
        for path in sorted(GOLDEN.glob("*.alg"))]
    assert len(structures) == 13
    for st in structures:
        ad, ref_ad = adjoint_module(st), _ref_adjoint_module(st)
        _same_module(ad, ref_ad)
        dual, ref_dual = dual_module(ad), _ref_dual_module(ref_ad)
        _same_module(dual, ref_dual)
        _same_module(dual_module(dual), _ref_dual_module(ref_dual))
        for mod in (ad, dual, trivial_module(st)):
            _same_structure(semidirect(mod), _ref_semidirect(mod))
    _same_structure(semidirect(adjoint_module(K3, tag="x"), name="sd"),
                    _ref_semidirect(_ref_adjoint_module(K3, tag="x"), "sd"))


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_check_report_counting_and_merge():
    rep = CheckReport("demo")
    with pytest.raises(TypeError):
        rep.record("id", (1,), None)                   # no instance is skipped
    rep.record("id", (2,), Vector.zero(K3.space))      # clean
    rep.record("id", (3,), {"a": F(0)})                # clean (zero dict)
    rep.record("id", (4,), {"a": F(1)})                # violation
    assert (rep.checked, rep.skipped, len(rep.violations)) == (3, 0, 1)
    assert not rep.ok
    other = CheckReport("more")
    other.record("id", (5,), F(0))
    other.extras["note"] = 7
    rep.merge(other)
    assert rep.checked == 4 and rep.extras == {"note": 7}
    text = rep.text()
    assert "status: fail" in text and "violations: 1" in text
