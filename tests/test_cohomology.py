"""The coboundary operator, its complex, and the attached solvers."""

import functools
import itertools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from antalg import cohomology, linalg, zoo
from antalg.antialgebra import (
    AntialgebraStructure,
    adjoint_module,
    check_axioms,
    dual_module,
    semidirect,
    trivial_module,
    zero_square_check,
)
from antalg.cohomology import (
    COMPONENTS,
    Cochain,
    CochainBasis,
    DeltaContext,
    apply_delta,
    DifferentialMatrix,
    apply_delta_component,
    assemble_complex,
    cohomology_dims,
    delta_instance,
    delta_via_bracket,
    derivation_space,
    extension_from_cocycle,
    kernel_of_delta1,
    random_cochain,
    solve_coboundary,
    verify_complex,
    _canonical_ys,
    _delta_matrix,
)
from antalg.core import (GradedSpace, Vector, parse_algebra_file,
                         parse_algebra_text)
from antalg.brackets import _perm_sign
from antalg.zoo import DictVec, WindowCochain

F = Fraction

DATA = Path(__file__).resolve().parents[1] / "src" / "antalg" / "data"
K3 = AntialgebraStructure.from_file_doc(
    parse_algebra_text((DATA / "k3.alg").read_text()))
ADJ = adjoint_module(K3)
TRIV = trivial_module(K3)


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

def test_cochain_validation():
    with pytest.raises(ValueError):
        Cochain(K3, ADJ, 0, {})
    with pytest.raises(ValueError):
        # odd arguments must be strictly increasing
        Cochain(K3, ADJ, 2, {(0, 2): {((), ("b", "a")): {("ad", "eps"): F(1)}}})
    with pytest.raises(ValueError):
        # a q=1 block must take odd values
        Cochain(K3, ADJ, 2, {(1, 1): {(("eps",), ("a",)): {("ad", "eps"): F(1)}}})


def test_cochain_misses_share_one_empty_value():
    """A missing block, a repeated odd label and a missing entry all read
    as the one zero value of the cochain, made once with the cochain."""
    c = Cochain(K3, ADJ, 2, {(0, 2): {((), ("a", "b")): {("ad", "eps"): F(1)}}})
    misses = [c.value(2, 0, ("eps", "eps"), ()),
              c.value(0, 2, (), ("a", "a")),
              c.value(1, 1, ("eps",), ("a",))]
    assert all(v is misses[0] for v in misses) and misses[0].is_zero()
    assert dict(c.value(0, 2, (), ("b", "a")).items()) == {("ad", "eps"): -1}
    eps0, a0 = ("eps", F(0)), ("a", F(1, 2))
    w = WindowCochain(1, {(1, 0): {((eps0,), ()): DictVec({eps0: F(1)})}})
    assert w.value(1, 0, (("eps", F(1)),), ()) is w.value(0, 1, (), (a0,))
    assert w.value(1, 0, (eps0,), ()) == DictVec({eps0: F(1)})


def test_cochain_add_rejects_a_degree_mismatch():
    a = random_cochain(K3, ADJ, 1, random.Random(3))
    b = random_cochain(K3, ADJ, 2, random.Random(3))
    with pytest.raises(ValueError, match="degrees 1 and 2"):
        a.add(b)


def _sort_path(space, ys):
    """Odd labels ordered by ``space.index``, with the sign (`_perm_sign`)
    of the sorting permutation; (None, 0) when a label repeats."""
    if len(set(ys)) < len(ys):
        return None, 0
    perm = sorted(range(len(ys)), key=lambda i: space.index(ys[i]))
    return tuple(ys[i] for i in perm), _perm_sign(perm)


def test_canonical_odd_order_matches_the_sort_path():
    """Every tuple of length 0 to 4 over four odd labels, repeats included,
    on a (1|4) basis and on the conformal basis of (family, index) labels,
    sorts as the sort path does: the closed-form sorts of two and three
    labels and the inversion count of four."""
    for space, odd in (
            (GradedSpace(["x"], ["d", "c", "a", "b"]), ("d", "c", "a", "b")),
            (zoo._CONF_BASIS, tuple(("a", F(k, 2)) for k in (3, -1, 1, -3)))):
        for n in range(5):
            for ys in itertools.product(odd, repeat=n):
                assert _canonical_ys(space, ys) == _sort_path(space, ys), ys


def test_random_cochain_reproducibility():
    a = random_cochain(K3, ADJ, 2, random.Random(17))
    b = random_cochain(K3, ADJ, 2, random.Random(17))
    c = random_cochain(K3, ADJ, 2, random.Random(18))
    assert a == b
    assert a != c


def _ref_basis(alg, mod, degree):
    """(keys, instances) of C^k as `CochainBasis` enumerated them before
    the one key enumerator: the shapes (p, k - p) in decreasing p with k - p
    at most the odd dimension, the instances of each shape that has an
    output label, and the keys of each instance in module order."""
    sp, outs = alg.space, (mod.space.even, mod.space.odd)
    instances = {
        (p, q): list(itertools.product(itertools.product(sp.even, repeat=p),
                                       itertools.combinations(sp.odd, q)))
        for p, q in ((p, degree - p) for p in range(degree, -1, -1))
        if q <= sp.dim1 and outs[q % 2]}
    keys = [(p, q, xs, ys, out) for (p, q), block in instances.items()
            for xs, ys in block for out in outs[q % 2]]
    return keys, instances


def test_cochain_bases_keep_their_key_order():
    """On k3 and every golden table, with trivial, adjoint and dual-adjoint
    coefficients, the keys and instances of C^1..C^3 are those of the
    enumeration above, in its order, and each key is indexed at its
    place."""
    paths = [DATA / "k3.alg", *sorted(GOLDEN.glob("*.alg"))]
    assert len(paths) == 13
    for path in paths:
        alg = AntialgebraStructure.from_file_doc(parse_algebra_file(path))
        adj = adjoint_module(alg)
        for mod in (trivial_module(alg), adj, dual_module(adj)):
            for k in (1, 2, 3):
                basis = CochainBasis(alg, mod, k)
                assert (basis.keys, basis.instances) == _ref_basis(
                    alg, mod, k), (path.name, mod.name, k)
                assert list(map(basis.index, basis.keys)) == list(
                    range(basis.dim))


def test_a_basis_builds_its_instances_on_first_read():
    """No matrix build reads a basis's instances, so neither the bases of
    delta^k nor a weight slice hold them until a caller asks; then they
    are those of the enumeration."""
    mat = _delta_matrix(K3, ADJ, 2)
    for basis in (mat.source, mat.target, CochainBasis(K3, TRIV, 3)):
        assert "instances" not in vars(basis)
    for k in (2, 3):
        basis = CochainBasis(K3, ADJ, k)
        assert basis.instances == _ref_basis(K3, ADJ, k)[1]
        assert "instances" in vars(basis)
    sliced = zoo._m1_slice(2, (0,))
    assert "instances" not in vars(sliced)
    assert sliced.instances == {
        (p, q): list(dict.fromkeys((xs, ys) for pp, qq, xs, ys, _ in
                                   sliced.keys if (pp, qq) == (p, q)))
        for p, q in dict.fromkeys(key[:2] for key in sliced.keys)}


# ---------------------------------------------------------------------------
# one operator, three routes
# ---------------------------------------------------------------------------

def _modules():
    return (TRIV, ADJ, dual_module(ADJ))


def _mat_vec(rows, vec):
    """`linalg` rows {column: coefficient} times a coefficient list."""
    return [sum((c * vec[j] for j, c in row.items()), F(0)) for row in rows]


def _densify(rows, ncols):
    return [[row.get(j, F(0)) for j in range(ncols)] for row in rows]


def _exact_ctx(alg, mod):
    """The exact `DeltaContext` of a finite structure's tables."""
    return DeltaContext(alg.space, mod.space,
                        lambda a, b: alg.products.get((a, b), {}),
                        lambda a, l: mod.action.get((a, l), {}))


def _pulled(ctx, target, coch):
    """delta of ``coch`` by the pull formulas, `delta_instance` in ``ctx``
    at every instance of the `CochainBasis` ``target``: {target row:
    nonzero value}."""
    return {target.index((P, Q, xs, ys, out)): c
            for (P, Q), instances in target.instances.items()
            for xs, ys in instances
            for out, c in delta_instance(ctx, coch, P, Q, xs, ys).items()
            if c}


def test_apply_delta_agrees_with_matrix_action():
    """`apply_delta` and the matrix times the coefficients both come from
    the scatter; the pull formulas swept over C^{k+1} are the reference."""
    rng = random.Random(23)
    for mod in _modules():
        ctx = _exact_ctx(K3, mod)
        for degree in (1, 2, 3):
            mat = _delta_matrix(K3, mod, degree)
            for _ in range(4):
                c = random_cochain(K3, mod, degree, rng)
                image = apply_delta(c)
                vec = _mat_vec(mat.full, mat.source.coeff_vector(c))
                assert mat.target.coeff_vector(image) == vec
                assert image == mat.target.from_row(
                    _pulled(ctx, mat.target, c))


def test_apply_delta_agrees_with_the_bracket_route():
    rng = random.Random(24)
    for mod in _modules():
        for degree in (1, 2, 3):
            for _ in range(4):
                c = random_cochain(K3, mod, degree, rng)
                assert apply_delta(c) == delta_via_bracket(c)


def test_delta_splits_into_the_three_components():
    rng = random.Random(25)
    for mod in _modules():
        for degree in (1, 2):
            for _ in range(4):
                c = random_cochain(K3, mod, degree, rng)
                total = None
                for comp in COMPONENTS:
                    part = apply_delta_component(c, comp)
                    total = part if total is None else total.add(part)
                assert total == apply_delta(c)


def _component(mat, comp):
    """The component ``comp`` of delta^k as a matrix: the `full` rows
    restricted to the entries whose block shift, from the source block of
    the column to the target block of the row, is ``comp``."""
    return [{j: c for j, c in row.items()
             if (P - mat.source.keys[j][0], Q - mat.source.keys[j][1]) == comp}
            for (P, Q, *_), row in zip(mat.target.keys, mat.full, strict=True)]


def test_full_delta_matrix_is_the_sum_of_component_matrices():
    mat = _delta_matrix(K3, ADJ, 2)
    n, m = mat.target.dim, mat.source.dim
    summed = [[F(0)] * m for _ in range(n)]
    for comp in COMPONENTS:
        block = _densify(_component(mat, comp), m)
        for i in range(n):
            for j in range(m):
                summed[i][j] += block[i][j]
    assert summed == _densify(mat.full, m)


def test_delta_matrices_store_no_zero():
    """The full matrix and its components hold only nonzero `Fraction`
    entries (an `int` or a float entry would turn `linalg`'s divisions into
    float arithmetic), and only in columns of the source basis.  The
    integer rows hold only nonzero `int`s there, and `full` is them over
    the scale."""
    sd = semidirect(adjoint_module(K3))
    for alg, mod, kmax in ((K3, ADJ, 4), (K3, dual_module(ADJ), 3),
                           (sd, trivial_module(sd), 3)):
        for k in range(1, kmax + 1):
            mat = _delta_matrix(alg, mod, k)
            comps = [_component(mat, comp) for comp in COMPONENTS]
            for rows, kind in ((mat.full, F), *((c, F) for c in comps),
                               (mat.ints, int)):
                assert len(rows) == mat.target.dim
                for row in rows:
                    assert all(row.values())
                    assert all(type(c) is kind for c in row.values())
                    assert all(0 <= j < mat.source.dim for j in row)
            assert mat.full == [{j: F(c, mat.scale) for j, c in row.items()}
                                for row in mat.ints]


def _rescaled(alg, scales):
    """The same algebra in the basis e -> scales[e] e."""
    return AntialgebraStructure(alg.space, {
        (a, b): {l: c * scales[a] * scales[b] / scales[l]
                 for l, c in prod.items()}
        for (a, b), prod in alg.products.items()})


# K3 plus a (1|3) summand whose even unit e acts by 1/2 on every odd
# element: odd dimension 5, with a nonzero odd-odd product a.b
K3H3_TEXT = """\
algebra K3H3
even eps e
odd a b v1 v2 v3

eps * eps = eps
eps * a = 1/2*a
eps * b = 1/2*b
a * b = 1/2*eps
e * e = e
e * v1 = 1/2*v1
e * v2 = 1/2*v2
e * v3 = 1/2*v3
"""


def test_integer_assembly_agrees_with_both_routes_beyond_k3():
    """The integer-assembled matrices, times random cochains, agree with
    the exact formulas and with the bracket route on inputs that K3 does
    not reach.  K3H3 has odd dimension 5, so delta^4 reaches the block
    (0,5) from (0,4) with the norm 1/5 and from (1,3) with 1/10, beside
    1/3, 1/4 and 1/6: it needs L_4 = 60, where odd dimension 4 needs only
    12.  K3 rescaled by 3/2 and -2/3 has products over the common
    denominator 36."""
    k3h3 = AntialgebraStructure.from_file_doc(parse_algebra_text(K3H3_TEXT))
    k3r = _rescaled(K3, {"eps": F(3, 2), "a": F(-2, 3), "b": F(1)})
    assert k3r.products[("a", "b")] == {"eps": F(-2, 9)}
    rng = random.Random(27)
    for alg, degrees in ((k3h3, (3, 4)), (k3r, (1, 2, 3))):
        assert check_axioms(alg.space, alg.product_map()).ok
        for mod in (trivial_module(alg), adjoint_module(alg)):
            for degree in degrees:
                mat = _delta_matrix(alg, mod, degree)
                for _ in range(2):
                    c = random_cochain(alg, mod, degree, rng, density=0.3)
                    image = apply_delta(c)
                    assert mat.target.coeff_vector(image) == _mat_vec(
                        mat.full, mat.source.coeff_vector(c))
                    assert image == mat.target.from_row(
                        _pulled(_exact_ctx(alg, mod), mat.target, c))
                    assert image == delta_via_bracket(c)


def _unit_column_degree(alg, mod, cells=12000):
    """The largest degree up to 3 whose delta^k has at most ``cells``
    entries, or 1 where even delta^1 has more."""
    dims = [CochainBasis(alg, mod, k).dim for k in range(1, 5)]
    return max((k for k in (1, 2, 3) if dims[k - 1] * dims[k] <= cells),
               default=1)


def test_component_matrices_match_the_unit_cochain_columns():
    """Each column of an assembled component matrix is that component
    applied to one unit cochain by the pull formulas, `delta_instance` at
    every target instance whose block is the unit's shifted by the
    component (a unit cochain has one block, so the target block fixes the
    component): the scatter of the assembly against the formulas it
    transposes.  Every golden table takes
    trivial, adjoint and dual-adjoint coefficients, at the degree of
    `_unit_column_degree`, and so does K3 |x ad(K3) at degree 3.  There
    the even part acts on the odd part by non-scalars, which K3 alone does
    not exercise, and odd dimension 4 makes degree 3 reach odd tuples of
    length 3, where a mixed product leaves the odd tuple from any of three
    places and an odd pair enters it at any two of four."""
    algs = [AntialgebraStructure.from_file_doc(parse_algebra_file(path))
            for path in sorted(GOLDEN.glob("*.alg"))]
    assert len(algs) == 12
    for alg, degree in (*((alg, None) for alg in algs),
                        (semidirect(adjoint_module(K3)), 3)):
        adj = adjoint_module(alg)
        for mod in (trivial_module(alg), adj, dual_module(adj)):
            mat = _delta_matrix(alg, mod,
                                degree or _unit_column_degree(alg, mod))
            columns = {comp: [{} for _ in mat.source.keys]
                       for comp in COMPONENTS}
            for comp, cols in columns.items():
                for i, row in enumerate(_component(mat, comp)):
                    for j, c in row.items():
                        cols[j][i] = c
            ctx = _exact_ctx(alg, mod)
            for j, key in enumerate(mat.source.keys):
                pulled = _pulled(ctx, mat.target, mat.source.unit(key))
                for comp, cols in columns.items():
                    assert cols[j] == {
                        i: c for i, c in pulled.items()
                        if (mat.target.keys[i][0] - key[0],
                            mat.target.keys[i][1] - key[1]) == comp}, (
                        mod.name, key, comp)


class _Reweighted(DeltaContext):
    """An integer context whose scalars are not delta's: half 5, one 3,
    the unit sign 7*L_k and every norm 3 times its own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.half, self.one, self.unit = 5, 3, 7 * self.unit

    def norm(self, component, p, q):
        return 3 * super().norm(component, p, q)


def _scattered_and_pulled(ctx, source, target, unit):
    """The columns of `_delta_between` in ``ctx``, and those that
    `delta_instance` gives in ``ctx`` for each unit cochain ``unit(key)``
    at every target instance: two lists of {target row: value}."""
    mat = cohomology._delta_between(ctx, source, target, 1)
    scattered = [{} for _ in source.keys]
    for i, row in enumerate(mat.ints):
        for j, c in row.items():
            scattered[j][i] = c
    pulled = [_pulled(ctx, target, unit(key)) for key in source.keys]
    return mat, scattered, pulled


def test_the_scatter_takes_every_weight_from_its_context():
    """The matrix scatter holds no weight of its own: in a context whose
    scalars are not delta's (`_Reweighted`), each column of
    `_delta_between` is `delta_instance` of its unit cochain in that same
    context, and the matrix differs from delta's.  On the golden k3n2x
    with adjoint coefficients and on the weight slices 0 and 2 of m1 with
    floored dual coefficients, k <= 3."""
    alg = AntialgebraStructure.from_file_doc(
        parse_algebra_file(GOLDEN / "k3n2x.alg"))
    mod = adjoint_module(alg)
    finite = (alg.space, mod.space,
              lambda a, b: alg.products.get((a, b), {}),
              lambda a, l: mod.action.get((a, l), {}))
    m1 = (zoo._INT_BASIS, zoo._INT_BASIS, zoo._conf_mul4,
          functools.partial(zoo._dual_act4, True))
    for k in (1, 2, 3):
        def window_unit(key):
            p, q, xs, ys, l = key
            return WindowCochain(k, {(p, q): {(xs, ys): {l: 1}}},
                                 zoo._INT_BASIS)
        for args, source, target, unit in (
                (finite, CochainBasis(alg, mod, k),
                 CochainBasis(alg, mod, k + 1), None),
                (m1, zoo._m1_slice(k, [0, 2]), zoo._m1_slice(k + 1, [0, 2]),
                 window_unit)):
            mat, scattered, pulled = _scattered_and_pulled(
                _Reweighted(*args, degree=k), source, target,
                unit or source.unit)
            assert scattered == pulled, (k, source.keys[:1])
            plain = cohomology._delta_between(
                DeltaContext(*args, degree=k), source, target, 1)
            assert mat.ints != plain.ints, (k, source.keys[:1])


def test_an_integer_norm_is_never_floored():
    """A context of degree k holds delta^k's norms n/d as n*L_k/d.  Where
    d does not divide n*L_k it raises, not floors: a degree-1 context
    (L = 2) meets delta_01's 1/3 from the block (0,2) of a 2-cochain, in
    the formulas and in the scatter alike; degree 2 (L = 6) gives 2."""
    alg = semidirect(ADJ)
    mod = trivial_module(alg)
    args = (alg.space, mod.space,
            lambda a, b: alg.products.get((a, b), {}),
            lambda a, l: mod.action.get((a, l), {}))
    low, high = DeltaContext(*args, degree=1), DeltaContext(*args, degree=2)
    assert (high.norm((0, 1), 0, 2), high.scale) == (2, 12)
    with pytest.raises(ValueError, match="1/3 is no norm of degree 1"):
        low.norm((0, 1), 0, 2)
    ys = tuple(alg.space.odd[:3])
    c = Cochain(alg, mod, 2, {(0, 2): {((), ys[:2]): {
        mod.space.even[0]: F(1)}}})
    with pytest.raises(ValueError, match="1/3 is no norm of degree 1"):
        delta_instance(low, c, 0, 3, (), ys)
    with pytest.raises(ValueError, match="1/3 is no norm of degree 1"):
        cohomology._delta_between(low, CochainBasis(alg, mod, 2),
                                  CochainBasis(alg, mod, 3), 1)


def test_the_benchmark_call_sites_are_reached(monkeypatch):
    """The benchmark's per-layer spans wrap `apply_delta_component` in
    `cohomology`, labelled by the ``degree`` of its first argument, and
    `delta_instance` in `zoo`: a cohomology table calls the first once
    per component and degree, with that degree, and the eta suite reaches
    the second at exactly the shapes that hold an instance whose key sum
    can carry a residual.  At N = 2 these are the four shapes of the two
    members' delta (doubled weight 0, key sums at most 1) but (0,3), whose
    least key sum is -1 + 1 + 3 = 3, and the three of the witnesses'."""
    degrees, instances = [], []
    component, instance = cohomology.apply_delta_component, zoo.delta_instance

    def recording_component(*args):
        degrees.append(args[0].degree)
        return component(*args)

    def recording_instance(*args):
        instances.append(args[2:4])
        return instance(*args)

    monkeypatch.setattr(cohomology, "apply_delta_component",
                        recording_component)
    monkeypatch.setattr(zoo, "delta_instance", recording_instance)
    cohomology_dims(K3, ADJ, 3)
    assert degrees == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    zoo.verify_cocycle_eta(2)
    assert set(instances) == {(3, 0), (2, 1), (1, 2), (2, 0), (1, 1), (0, 2)}


def test_delta_matrix_columns_match_the_bracket_route():
    """Column j of delta^k is delta of the j-th unit cochain by the bracket
    route, which shares no sweep code with the assembly.  With trivial
    coefficients no odd-Q block of C^{k+1} carries an output label, so the
    assembly sweeps none of them and no (0,1)-component; the dual and the
    non-scalar adjoint actions run every component through the memoized
    products."""
    k3n2x = AntialgebraStructure.from_file_doc(
        parse_algebra_file(GOLDEN / "k3n2x.alg"))
    sd = semidirect(adjoint_module(K3))
    for alg, mod, kmax in ((k3n2x, trivial_module(k3n2x), 3),
                           (K3, dual_module(ADJ), 3),
                           (sd, adjoint_module(sd, tag="ad2"), 2)):
        for k in range(1, kmax + 1):
            mat = _delta_matrix(alg, mod, k)
            if not mod.action:
                assert all(key[1] % 2 == 0 for key in mat.target.keys)
            for j, key in enumerate(mat.source.keys):
                column = [row.get(j, F(0)) for row in mat.full]
                assert column == mat.target.coeff_vector(
                    delta_via_bracket(mat.source.unit(key))), (mod, k, key)


# ---------------------------------------------------------------------------
# the complex and its bidegree structure
# ---------------------------------------------------------------------------

# composites grouped by total bidegree shift; each group must cancel on its
# own because the shifts land in different blocks of the target
COMPOSITE_GROUPS = {
    (2, 0): [((1, 0), (1, 0))],
    (1, 1): [((0, 1), (1, 0)), ((1, 0), (0, 1))],
    (0, 2): [((0, 1), (0, 1)), ((-1, 2), (1, 0)), ((1, 0), (-1, 2))],
    (-1, 3): [((0, 1), (-1, 2)), ((-1, 2), (0, 1))],
    (-2, 4): [((-1, 2), (-1, 2))],
}


def test_component_composites_cancel_groupwise():
    rng = random.Random(31)
    for mod in (TRIV, ADJ):
        for degree in (1, 2):
            for _ in range(3):
                c = random_cochain(K3, mod, degree, rng)
                for pairs in COMPOSITE_GROUPS.values():
                    total = None
                    for inner, outer in pairs:
                        part = apply_delta_component(
                            apply_delta_component(c, inner), outer)
                        total = part if total is None else total.add(part)
                    assert total.is_zero()


def test_assemble_complex_verifies_square_zero():
    for mod in _modules():
        mats = assemble_complex(K3, mod, 4, verify=True)
        for cur, nxt in zip(mats, mats[1:]):
            assert linalg.mat_is_zero(linalg.mat_mul(nxt.full, cur.full))


# S12 (ROADMAP item 2): the smallest valid table known with delta^2 != 0.
# eps acts on a by 1/2 and on b by 0, and no other product is nonzero.
S12 = AntialgebraStructure(GradedSpace(("eps",), ("a", "b")), {
    ("eps", "eps"): {"eps": F(1)}, ("eps", "a"): {"a": F(1, 2)}})


def test_delta_squared_on_the_smallest_failing_table_is_pinned():
    """On S12, delta^2 of the unit (0,2) cochain c(a,b) = 1 with trivial
    coefficients has one nonzero value, 1/16 at ((eps,eps),(a,b)) in block
    (2,2), and it is delta10 after delta10: this pins delta's exact values
    on a table where delta^2 != 0."""
    assert check_axioms(S12.space, S12.product_map()).ok
    assert zero_square_check(S12)[0].ok
    triv = trivial_module(S12)
    c = CochainBasis(S12, triv, 2).unit((0, 2, (), ("a", "b"), "triv"))
    twice = apply_delta(apply_delta(c))
    assert twice.shapes() == [(2, 2)]
    assert twice.block(2, 2) == {
        (("eps", "eps"), ("a", "b")): Vector(triv.space, {"triv": F(1, 16)})}
    d10 = apply_delta_component(apply_delta_component(c, (1, 0)), (1, 0))
    assert d10 == twice


_DELTA2_ON_K3AD = """\
from antalg.antialgebra import (AntialgebraStructure, adjoint_module,
                                semidirect, trivial_module)
from antalg.cohomology import cohomology_dims
from antalg.core import parse_algebra_file
sd = semidirect(adjoint_module(AntialgebraStructure.from_file_doc(
    parse_algebra_file({path!r}))))
try:
    cohomology_dims(sd, trivial_module(sd), 3)
except AssertionError as exc:
    print(exc)
"""


def test_delta_squared_check_survives_python_O():
    """delta^2 != 0 on K3 |x ad(K3) (ROADMAP item 2) is caught by
    `verify_complex`, also under ``python -O``, which strips asserts."""
    sd = semidirect(adjoint_module(K3))
    with pytest.raises(AssertionError, match=r"delta\^3 after delta\^2"):
        cohomology_dims(sd, trivial_module(sd), 3)
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         _DELTA2_ON_K3AD.format(path=str(DATA / "k3.alg"))],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "delta^3 after delta^2 is nonzero" in proc.stdout


# The delta^2 failure messages of `assemble_complex`, as the check by nine
# component products gave them before the one integer product replaced it.
# Each table here fails first in d10.d10 (K3 (x) k[t]/(t^4) is valid, but
# its even part acts on the odd part by more than one scalar).
DELTA2_MESSAGES = [
    (table, coeff, kmax, "delta^3 after delta^2 is nonzero (d10.d10)")
    for table in ("s12", "k3ad", "k3t4") for coeff in ("trivial", "adjoint")
    for kmax in (3, 4)]


def _delta2_table(name):
    if name == "s12":
        return S12
    if name == "k3ad":
        return semidirect(adjoint_module(K3))
    return AntialgebraStructure.from_file_doc(
        parse_algebra_file(GOLDEN / f"{name}.alg"))


@pytest.mark.parametrize("table,coeff,kmax,message", DELTA2_MESSAGES)
def test_delta_squared_failure_messages_are_pinned(table, coeff, kmax,
                                                   message):
    alg = _delta2_table(table)
    mod = (trivial_module if coeff == "trivial" else adjoint_module)(alg)
    with pytest.raises(AssertionError) as err:
        assemble_complex(alg, mod, kmax)
    assert str(err.value) == message


def test_a_failing_complex_stops_at_its_first_failing_degree(monkeypatch):
    """`assemble_complex` checks each pair as soon as it exists, so on
    K3 (x) k[t]/(t^4), whose delta^3 delta^2 is nonzero, it builds delta^1
    to delta^3 only, not the far larger delta^4 and delta^5."""
    built = []
    delta_matrix = cohomology._delta_matrix

    def counting(alg, mod, k, source=None):
        built.append(k)
        return delta_matrix(alg, mod, k, source)
    monkeypatch.setattr(cohomology, "_delta_matrix", counting)
    alg = _delta2_table("k3t4")
    with pytest.raises(AssertionError) as err:
        assemble_complex(alg, adjoint_module(alg), 5)
    assert str(err.value) == "delta^3 after delta^2 is nonzero (d10.d10)"
    assert built == [1, 2, 3]


@pytest.mark.parametrize("table", ["k3", "k3n2x"])
def test_verified_complexes_equal_the_unverified_ones(table):
    """Checking degree by degree changes no matrix: with and without
    ``verify``, every delta^k has the same integer rows and scale."""
    alg = K3 if table == "k3" else AntialgebraStructure.from_file_doc(
        parse_algebra_file(GOLDEN / "k3n2x.alg"))
    for mod in (trivial_module(alg), adjoint_module(alg)):
        checked = assemble_complex(alg, mod, 4)
        unchecked = assemble_complex(alg, mod, 4, verify=False)
        assert [m.k for m in checked] == [1, 2, 3, 4]
        assert [(m.ints, m.scale) for m in checked] == [
            (m.ints, m.scale) for m in unchecked]


def _without_d10(mat):
    """delta^k with its (1,0)-component dropped: the entries of shift 1."""
    keys = mat.source.keys
    return DifferentialMatrix(mat.k, mat.source, mat.target, [
        {j: c for j, c in row.items() if P - keys[j][0] != 1}
        for (P, *_), row in zip(mat.target.keys, mat.ints, strict=True)],
        mat.scale)


@pytest.mark.parametrize("coeff,dropped,group", [
    ("trivial", "outer", "d01.d01+d10.d-12+d-12.d10"),
    ("trivial", "inner", "d01.d01+d10.d-12+d-12.d10"),
    ("trivial", "both", "d-12.d-12"),
    ("adjoint", "outer", "d10.d01+d01.d10"),
    ("adjoint", "inner", "d10.d01+d01.d10"),
    ("adjoint", "both", "d01.d01+d10.d-12+d-12.d10")])
def test_delta_squared_names_the_first_nonzero_group(coeff, dropped, group):
    """No table above fails first in a group other than d10.d10, so these
    cases drop the (1,0)-component of delta^2 (inner), delta^3 (outer) or
    both on K3 |x ad(K3), which leaves the later groups to be named.  The
    names are those that the nine component products gave."""
    sd = semidirect(adjoint_module(K3))
    mod = (trivial_module if coeff == "trivial" else adjoint_module)(sd)
    cur, nxt = assemble_complex(sd, mod, 3, verify=False)[1:]
    if dropped != "outer":
        cur = _without_d10(cur)
    if dropped != "inner":
        nxt = _without_d10(nxt)
    with pytest.raises(AssertionError) as err:
        verify_complex([cur, nxt])
    assert str(err.value) == f"delta^3 after delta^2 is nonzero ({group})"


def test_trivial_coefficients_check_the_01_component():
    """Adjoint coefficients give K3's delta^1 a (0,1)-component, which the
    trivial-coefficient check rejects with its pinned message."""
    mats = assemble_complex(K3, ADJ, 2)
    with pytest.raises(AssertionError) as err:
        verify_complex(mats, trivial=True)
    assert str(err.value) == ("trivial coefficients must kill the "
                              "(0,1)-component")


def test_cohomology_dimension_tables():
    assert cohomology_dims(K3, TRIV, 4) == [
        (1, 1, 1, 0), (2, 2, 1, 0), (3, 2, 1, 0), (4, 2, 1, 0)]
    adj_dims = [(1, 5, 2, 3), (2, 6, 4, 0), (3, 6, 2, 0), (4, 6, 4, 0)]
    assert cohomology_dims(K3, ADJ, 4) == adj_dims
    assert cohomology_dims(K3, dual_module(ADJ), 4) == adj_dims


K3N2_TEXT = """\
algebra K3N2
even eps t1 t2
odd a b

eps * eps = eps
eps * a = 1/2*a
eps * b = 1/2*b
a * b = 1/2*eps
t1 * t1 = t2
"""


def test_k3_plus_nilpotent_adjoint_table_through_degree_five():
    """K3 + t.k[t]/(t^3) with adjoint coefficients: the even part acts on
    the odd part by scalars, so delta^2 = 0 holds here through k = 5."""
    alg = AntialgebraStructure.from_file_doc(parse_algebra_text(K3N2_TEXT))
    table = cohomology_dims(alg, adjoint_module(alg), 5)
    assert [r for _, _, r, _ in table] == [8, 32, 92, 284, 848]
    assert [h for _, _, _, h in table] == [5, 2, 2, 2, 2]
    assert [d for _, d, _, _ in table] == [13, 42, 126, 378, 1134]


# K3 + N2 in the basis e = eps + t1, the table of tests/golden/k3n2x.alg
K3N2X_TEXT = """\
algebra K3N2X
even e t1 t2
odd a b

e * e = e - t1 + t2
e * t1 = t2
e * a = 1/2*a
e * b = 1/2*b
a * b = 1/2*e - 1/2*t1
t1 * t1 = t2
"""


def test_delta_expands_products_with_several_labels():
    """In the basis e = eps + t1 the products e.e and a.b have several
    labels, so every product-fed slot of delta sums over them; the
    cohomology is still K3 + N2's, and delta agrees with the bracket."""
    alg = AntialgebraStructure.from_file_doc(parse_algebra_text(K3N2X_TEXT))
    assert len(alg.products[("e", "e")]) == 3
    assert len(alg.products[("a", "b")]) == 2
    assert check_axioms(alg.space, alg.product_map()).ok
    triv, adj = trivial_module(alg), adjoint_module(alg)
    assert cohomology_dims(alg, triv, 3) == [
        (1, 3, 2, 1), (2, 10, 7, 1), (3, 30, 22, 1)]
    assert cohomology_dims(alg, adj, 3) == [
        (1, 13, 8, 5), (2, 42, 32, 2), (3, 126, 92, 2)]
    rng = random.Random(26)
    for mod in (triv, adj):
        for degree in (1, 2):
            for _ in range(3):
                c = random_cochain(alg, mod, degree, rng)
                assert apply_delta(c) == delta_via_bracket(c)


def test_k3n2x_adjoint_ranks_through_degree_five():
    """The scale case: tests/golden/k3n2x.alg with adjoint coefficients to
    k = 5 (delta^5 is 3402 x 1134).  The ranks are those the `Fraction`
    elimination gave before ranks were taken on the integer rows, and the
    cohomology is K3 + N2's, as in the basis of single-label products."""
    alg = AntialgebraStructure.from_file_doc(
        parse_algebra_file(GOLDEN / "k3n2x.alg"))
    table = cohomology_dims(alg, adjoint_module(alg), 5)
    assert [r for _, _, r, _ in table] == [8, 32, 92, 284, 848]
    assert [h for _, _, _, h in table] == [5, 2, 2, 2, 2]
    assert [d for _, d, _, _ in table] == [13, 42, 126, 378, 1134]


# ---------------------------------------------------------------------------
# degree one: derivations
# ---------------------------------------------------------------------------

def _is_module_derivation(c, alg, mod):
    def c_of(vec):
        out = Vector.zero(mod.space)
        for l, co in vec.items():
            if alg.space.parity(l) == 0:
                out = out.add(c.value(1, 0, (l,), ()).scale(co))
            else:
                out = out.add(c.value(0, 1, (), (l,)).scale(co))
        return out

    for u in alg.space.labels():
        for v in alg.space.labels():
            sign = F(-1) ** (alg.space.parity(u) * alg.space.parity(v))
            res = c_of(alg.mul(u, v))
            res = res.sub(mod.act_vec(Vector.basis(alg.space, u),
                                      c_of(Vector.basis(alg.space, v))))
            res = res.sub(mod.act_vec(Vector.basis(alg.space, v),
                                      c_of(Vector.basis(alg.space, u)))
                          .scale(sign))
            if not res.is_zero():
                return False
    return True


def test_derivations_coincide_with_the_degree_one_kernel():
    der = derivation_space(K3, ADJ)
    ker = kernel_of_delta1(K3, ADJ)
    assert len(der["coeff_basis"]) == 3
    assert len(ker["coeff_basis"]) == 3
    assert der["rref"] == ker["rref"]
    for c in der["basis"]:
        assert _is_module_derivation(c, K3, ADJ)
    for c in ker["basis"]:
        assert _is_module_derivation(c, K3, ADJ)
        assert apply_delta(c).is_zero()


# ---------------------------------------------------------------------------
# extensions by 2-cochains: the report kernel vs the cocycle kernel
# ---------------------------------------------------------------------------

def _extension_residual_matrix(basis):
    """The extension axiom residuals as a linear map of the cochain."""
    cols, keys = [], set()
    for i in range(basis.dim):
        _, rep = extension_from_cocycle(basis.from_row({i: F(1)}))
        col = {}
        for v in rep.violations:
            for l, val in v.residual.items():
                col[(v.kind, v.instance, l)] = val
        cols.append(col)
        keys |= set(col)
    keys = sorted(keys, key=repr)
    return [{j: cols[j][k] for j in range(basis.dim) if cols[j].get(k)}
            for k in keys]


def test_valid_extensions_are_not_exactly_the_cocycles():
    """Both kernels are 2-dimensional but they differ: being a cocycle
    neither implies nor is implied by the extension product satisfying the
    axioms.  Witnesses in both directions, plus the exact row spaces."""
    basis = CochainBasis(K3, ADJ, 2)
    assert basis.dim == 6
    dmat = _delta_matrix(K3, ADJ, 2)
    ker_delta = linalg.nullspace(dmat.full, basis.dim)
    ker_ext = linalg.nullspace(_extension_residual_matrix(basis), basis.dim)
    assert len(ker_delta) == len(ker_ext) == 2
    r_delta, _ = linalg.rref(ker_delta)
    r_ext, _ = linalg.rref(ker_ext)
    assert _densify(r_delta, 6) == [
        [F(1), F(1), F(0), F(0), F(1), F(0)],
        [F(0), F(0), F(0), F(0), F(0), F(1)]]
    assert _densify(r_ext, 6) == [
        [F(1), F(1, 2), F(0), F(0), F(1, 2), F(0)],
        [F(0), F(0), F(0), F(0), F(0), F(1)]]
    assert linalg.rank(ker_delta + ker_ext) == 3  # they share only one line

    # a cocycle whose extension violates the axioms
    closed = basis.from_row(r_delta[0])
    assert apply_delta(closed).is_zero()
    _, rep = extension_from_cocycle(closed)
    assert not rep.ok and len(rep.violations) == 4

    # a non-cocycle whose extension passes every axiom
    loose = basis.from_row(r_ext[0])
    assert not apply_delta(loose).is_zero()
    _, rep = extension_from_cocycle(loose)
    assert rep.ok


def test_extension_requires_a_symmetric_even_block():
    sd = semidirect(adjoint_module(K3, tag="ad2"))
    mod = adjoint_module(sd, tag="x")
    e0, e1 = sd.space.even
    out = mod.space.odd[0]
    asym = Cochain(sd, mod, 2, {(1, 1): {}})
    assert extension_from_cocycle(asym)[1] is not None  # zero cochain is fine
    bad = Cochain(sd, mod, 2, {(2, 0): {((e0, e1), ()): {mod.space.even[0]: F(1)}}})
    with pytest.raises(ValueError):
        extension_from_cocycle(bad)


# ---------------------------------------------------------------------------
# solving for primitives
# ---------------------------------------------------------------------------

def test_solve_coboundary_round_trip():
    rng = random.Random(37)
    for mod in (ADJ, TRIV):
        for degree in (1, 2, 3):
            for _ in range(4):
                base = random_cochain(K3, mod, degree, rng)
                target = apply_delta(base)
                if target.is_zero():
                    continue
                found = solve_coboundary(target)
                assert found is not None
                assert apply_delta(found) == target


def test_solve_coboundary_edge_cases():
    # degree-one targets have no primitives at all (the complex starts at 1)
    one = random_cochain(K3, ADJ, 1, random.Random(2))
    assert solve_coboundary(one) is None
    # a non-closed cochain is never a coboundary
    rng = random.Random(3)
    while True:
        c = random_cochain(K3, ADJ, 2, rng)
        if not apply_delta(c).is_zero():
            break
    assert solve_coboundary(c) is None


# ---------------------------------------------------------------------------
# the operator on a truncated infinite family
# ---------------------------------------------------------------------------

class LazyDelta(WindowCochain):
    """Coboundary of a windowed cochain, evaluated instance by instance
    with the global products, so every value is decided."""

    def __init__(self, ctx, base):
        super().__init__(base.degree + 1)
        self.ctx = ctx
        self.base = base

    def value(self, p, q, xs, ys):
        cys, sign = zoo._sort_ys(tuple(ys))
        if cys is None:
            return DictVec()
        v = delta_instance(self.ctx, self.base, p, q, tuple(xs), cys)
        return v if sign == 1 else v.scale(sign)


def test_windowed_adjoint_delta_squares_to_zero_where_decidable():
    ctx, w = zoo.ak1_adjoint_ctx(3)
    ident = WindowCochain(1, {
        (1, 0): {((l,), ()): DictVec({l: F(1)}) for l in w.even},
        (0, 1): {((), (l,)): DictVec({l: F(1)}) for l in w.odd},
    })
    dd = LazyDelta(ctx, LazyDelta(ctx, ident))
    decided = bad = 0
    for p, q in ((3, 0), (2, 1), (1, 2), (0, 3)):
        for xs in itertools.product(w.even, repeat=p):
            for ys in itertools.combinations(w.odd, q):
                decided += 1
                bad += bool(dd.value(p, q, xs, ys).c)
    assert (decided, bad) == (762, 0)


# ---------------------------------------------------------------------------
# classical known answers: with no odd part the complex is the Hochschild
# complex of a commutative algebra (Loday, Cyclic Homology, 1992; Cartan-
# Eilenberg, 1956)
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _kunneth_kx2y2(kmax):
    return [sum((2 if i in (0, n) else 1) for i in range(n + 1))
            for n in range(1, kmax + 1)]


@pytest.mark.parametrize("table,coefficients,kmax,expected", [
    # HH^n(k[t]/(t^m)) = m - 1 for n >= 1 in characteristic 0
    ("kt2", "adjoint", 5, [1] * 5),
    ("kt3", "adjoint", 5, [2] * 5),
    ("kt4", "adjoint", 4, [3] * 4),
    # Kuenneth: HH^n(A (x) A) = sum_i h_i h_{n-i} for A = k[t]/(t^2), with
    # h = 2, 1, 1, .. (HH^0 is the centre, A itself): 4, 5, 6, 7, 8
    ("kx2y2", "adjoint", 4, _kunneth_kx2y2(4)),
    # k is separable: HH^n(k, k) = 0 for n >= 1
    ("kunit", "adjoint", 5, [0] * 5),
    # the unit acts by 0 on the trivial module: the complex is contractible
    ("kt2", "trivial", 5, [0] * 5),
    # Ext^n over k[t]/(t^3) between k and k: 1 in each degree
    ("tkt3", "trivial", 5, [1] * 5),
    # the largest complexes here: delta^5 is 16384 x 4096 on both
    ("kt4", "adjoint", 5, [3] * 5),
    ("kx2y2", "adjoint", 5, _kunneth_kx2y2(5)),
], ids=lambda v: v if isinstance(v, str) else None)
def test_cohomology_of_purely_even_tables_has_its_classical_value(
        table, coefficients, kmax, expected):
    alg = AntialgebraStructure.from_file_doc(
        parse_algebra_file(GOLDEN / f"{table}.alg"))
    module = adjoint_module if coefficients == "adjoint" else trivial_module
    dims = cohomology_dims(alg, module(alg), kmax)
    assert [h for _, _, _, h in dims] == expected

