"""Graded spaces, sparse vectors/maps, and the structure-constant parser."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from antalg.core import (
    GradedSpace,
    MultiMap,
    ParseError,
    Vector,
    complete_product_table,
    is_parity_preserving,
    parse_algebra_text,
)

F = Fraction

K3_TEXT = """\
algebra K3
even eps
odd a b

eps * eps = eps
eps * a = 1/2*a
eps * b = 1/2*b
a * b = 1/2*eps
"""


# ---------------------------------------------------------------------------
# spaces and vectors
# ---------------------------------------------------------------------------

def test_graded_space_basics():
    sp = GradedSpace(("u", "v"), ("x",))
    assert sp.dim0 == 2 and sp.dim1 == 1
    assert sp.parity("u") == 0 and sp.parity("x") == 1
    assert sp.index("v") == 1 and sp.index("x") == 0
    assert "x" in sp and "w" not in sp
    assert sp.labels() == ("u", "v", "x")


def test_graded_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        GradedSpace(("u",), ("u",))
    with pytest.raises(KeyError):
        GradedSpace(("u",), ()).parity("nope")


def test_vector_arithmetic_drops_zeros():
    sp = GradedSpace(("u", "v"), ())
    a = Vector(sp, {"u": F(1, 2), "v": 3})
    b = Vector(sp, {"u": F(-1, 2)})
    s = a.add(b)
    assert s.coeff("u") == 0 and "u" not in s.support()
    assert s == Vector(sp, {"v": 3})
    assert a.sub(a).is_zero()
    assert a.scale(2).coeff("u") == 1
    with pytest.raises(ValueError):
        Vector(sp, {"w": 1})


def test_vector_add_and_scale_keep_exact_nonzero_coefficients():
    sp = GradedSpace(("u", "v"), ())
    a = Vector(sp, {"u": F(1, 2), "v": 3})
    assert a.scale(0).is_zero() and a.scale(0) == Vector.zero(sp)
    assert a.scale("2/3") == Vector(sp, {"u": F(1, 3), "v": 2})
    total = a.add(a.scale(-2)).add(Vector(sp, {"u": F(1, 2)}))
    assert total == Vector(sp, {"v": -3})
    assert all(type(c) is Fraction and c for _, c in total.items())
    assert list(dict(a.add(Vector(sp, {"u": 1})).items())) == ["u", "v"]


# Operand mismatches caught by checks that must survive ``python -O``.
_MISMATCHES = """\
from fractions import Fraction
from antalg.brackets import BlockMap
from antalg.core import GradedSpace, MultiMap, Vector
from antalg.zoo import w1_bracket
sp, other = GradedSpace(("u",), ("x",)), GradedSpace(("w",), ())
cases = {
    "vector": lambda: Vector.basis(sp, "u").add(Vector.basis(other, "w")),
    "multimap": lambda: MultiMap(sp, 1, 0).add(MultiMap(sp, 0, 1)),
    "blockmap": lambda: BlockMap(sp, 1).add(BlockMap(sp, 2)),
    "w1": lambda: w1_bracket(("l", Fraction(0)), ("xi", Fraction(1, 2))),
}
"""

_REPORT = """
for name, op in cases.items():
    try:
        op()
    except ValueError:
        print(name, "ValueError")
"""


def test_operand_mismatches_raise_value_error_also_under_python_O():
    ns: dict = {}
    exec(_MISMATCHES, ns)
    for op in ns["cases"].values():
        with pytest.raises(ValueError):
            op()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _MISMATCHES + _REPORT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} ValueError" for name in ns["cases"]]


def test_multimap_canonical_form():
    # same entries in a different insertion order compare equal; explicit
    # zeros are never stored
    sp = GradedSpace(("u",), ("x", "y"))
    e1 = {(("u",), ("x",), "x"): F(2), (("u",), ("y",), "y"): F(1)}
    e2 = {(("u",), ("y",), "y"): F(1), (("u",), ("x",), "x"): F(2),
          (("u",), ("x",), "y"): F(0)}
    assert MultiMap(sp, 1, 1, e1) == MultiMap(sp, 1, 1, e2)
    assert MultiMap(sp, 1, 1, {(("u",), ("x",), "x"): 0}).is_zero()


def test_multimap_rejects_misplaced_arguments():
    sp = GradedSpace(("u",), ("x",))
    with pytest.raises(ValueError):
        MultiMap(sp, 1, 0, {(("x",), (), "u"): 1})


def test_parity_bookkeeping():
    sp = GradedSpace(("u",), ("x", "y"))
    even_valued = MultiMap(sp, 0, 2, {((), ("x", "y"), "u"): 1})
    odd_valued = MultiMap(sp, 1, 1, {(("u",), ("x",), "y"): 1})
    mixed = MultiMap(sp, 1, 1, {(("u",), ("x",), "y"): 1,
                                (("u",), ("x",), "u"): 1})
    assert is_parity_preserving(even_valued)
    assert is_parity_preserving(odd_valued)
    assert not is_parity_preserving(mixed)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_k3_completes_the_product_table():
    doc = parse_algebra_text(K3_TEXT)
    assert doc.name == "K3"
    assert doc.space == GradedSpace(("eps",), ("a", "b"))
    assert doc.products[("a", "b")] == {"eps": F(1, 2)}
    # mirror pairs are filled in with the graded-commutativity sign
    assert doc.products[("b", "a")] == {"eps": F(-1, 2)}
    assert doc.products[("a", "eps")] == {"a": F(1, 2)}


def test_parse_module_block():
    text = K3_TEXT + """
module
even t
a . t = 2*t
"""
    doc = parse_algebra_text(text)
    assert doc.module_space == GradedSpace(("t",), ())
    assert doc.action == {("a", "t"): {"t": F(2)}}


@pytest.mark.parametrize("text,lineno,fragment", [
    ("algebra X\neven u\nu * u = 3*w\n", 3, "unknown"),
    ("algebra X\neven 1u\n", 2, "label"),
    ("algebra X\neven u\nwhat is this\n", 3, "cannot parse"),
    ("even u\nu * u = u\n", 1, "missing"),
    ("algebra X\neven u\nu * u = u\nu * u = 2*u\n", 4, "duplicate"),
    ("algebra X\neven u\nmodule\neven t\nu . s = t\n", 5, "unknown module"),
    ("algebra X\neven u\nalgebra Y\n", 3, "duplicate 'algebra'"),
    ("algebra X\neven e\ne * e =\n", 3, "empty right-hand side"),
    ("algebra X\neven e\nodd y z\ny * z = 1*e\nz * y = 1*e\n", 5,
     "conflicting"),
    ("algebra dup\neven e\nodd a b\nodd a\n", 4,
     "basis labels must be unique"),
])
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ParseError) as exc:
        parse_algebra_text(text)
    assert exc.value.lineno == lineno
    assert fragment in str(exc.value)


def _products(*lines):
    """The completed table of a 2|2 document with the given product lines."""
    return parse_algebra_text("\n".join(
        ("algebra X", "even e f", "odd y z") + lines) + "\n").products


def test_parse_reads_each_term_with_its_sign():
    assert _products("e * f = f - f") == {}  # cancelled, not stored
    assert _products("e * f = 0") == {}  # an empty entry, not stored
    assert _products("e * f = - 1/2*f + 3 e - 0*e") == {
        ("e", "f"): {"f": F(-1, 2), "e": F(3)},
        ("f", "e"): {"f": F(-1, 2), "e": F(3)}}
    # each sign must lead a term body: a run of signs, with or without
    # spaces, and a trailing sign are dangling, not read as one sign
    for rhs in ("--1/2*f", "e+-f", "e -", "+ -f", "e - -f"):
        with pytest.raises(ParseError, match="line 4: dangling sign"):
            _products(f"e * f = {rhs}")
    # the zero entry of y.z is stored while parsing: z.y may not differ
    with pytest.raises(ParseError, match="line 5: conflicting"):
        _products("y * z = 0", "z * y = e")


def test_parse_mirrors_are_signed_dicts_of_their_own():
    table = _products("y * z = 1/3*e", "e * y = 2*z", "e * e = -f")
    assert table == {("y", "z"): {"e": F(1, 3)}, ("z", "y"): {"e": F(-1, 3)},
                     ("e", "y"): {"z": F(2)}, ("y", "e"): {"z": F(2)},
                     ("e", "e"): {"f": F(-1)}}
    assert all(type(c) is Fraction for v in table.values() for c in v.values())
    assert table[("e", "y")] is not table[("y", "e")]
    table[("e", "y")]["z"] = F(5)
    assert table[("y", "e")] == {"z": F(2)}
    given = {("e", "y"): {"z": 1}, ("y", "z"): {"e": "1/2"}}
    done = complete_product_table(GradedSpace(("e",), ("y", "z")), given)
    assert done == {("e", "y"): {"z": F(1)}, ("y", "e"): {"z": F(1)},
                    ("y", "z"): {"e": F(1, 2)}, ("z", "y"): {"e": F(-1, 2)}}
    assert done[("e", "y")] is not done[("y", "e")]
    assert all(v is not given.get(k) for k, v in done.items())


def test_completion_rejects_conflicting_mirrors():
    sp = GradedSpace((), ("a", "b"))
    given = {("a", "b"): {}, }
    # a.b = 0 forces b.a = 0; an explicit clashing value must raise
    given = {("a", "b"): {"a": 0}}
    table = complete_product_table(GradedSpace(("e",), ("a", "b")),
                                   {("a", "b"): {"e": 1}})
    assert table[("b", "a")] == {"e": F(-1)}
    with pytest.raises(ValueError):
        complete_product_table(
            GradedSpace(("e",), ("a", "b")),
            {("a", "b"): {"e": 1}, ("b", "a"): {"e": 1}})


@pytest.mark.parametrize("module", [
    "antalg", "antalg.antialgebra", "antalg.brackets", "antalg.cohomology",
    "antalg.core", "antalg.linalg", "antalg.zoo"])
def test_every_exported_name_is_bound(module):
    """A name left in ``__all__`` after its definition is deleted."""
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
