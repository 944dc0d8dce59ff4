"""Seeded benchmark fixtures: finite product tables written as `.alg` files.

Every table is built here from its definition, without calling the program
under test.  Each then receives a seeded diagonal rescaling of its basis,
e_i -> lam_i * e_i.  The rescaling is an isomorphism, so every verdict,
dimension and rank is the same for every seed; only the heights of the
structure constants change.  Labels are plain identifiers, because the
program's own adjoint labels are tuples that the file format cannot hold.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

F = Fraction
HALF = F(1, 2)

# Scale factors for the rescaling.  They are small on purpose: the heights
# change with the seed, but not so much that one seed costs far more
# Fraction arithmetic than another.
SCALES = (F(1), F(-1), F(2), F(-2), HALF, -HALF, F(3, 2), F(-2, 3))


class Table:
    """A graded-commutative product table.

    ``products`` holds one ordered pair of each mirror pair; the other is
    implied by a.b = (-1)^{|a||b|} b.a, as in the file format.
    """

    def __init__(self, name, even, odd, products):
        self.name = name
        self.even = tuple(even)
        self.odd = tuple(odd)
        self.products = {k: dict(v) for k, v in products.items()}

    @property
    def labels(self):
        return self.even + self.odd

    def parity(self, label) -> int:
        return 1 if label in self.odd else 0

    def mul(self, a, b) -> dict:
        """The product of two basis labels, mirror pairs included."""
        if (a, b) in self.products:
            return self.products[(a, b)]
        sign = -1 if self.parity(a) and self.parity(b) else 1
        return {l: sign * c for l, c in self.products.get((b, a), {}).items()}


def k3() -> Table:
    """The (1|2) Lie antialgebra K3."""
    return Table("K3", ("eps",), ("a", "b"), {
        ("eps", "eps"): {"eps": F(1)},
        ("eps", "a"): {"a": HALF},
        ("eps", "b"): {"b": HALF},
        ("a", "b"): {"eps": HALF},
    })


def with_adjoint(base: Table) -> Table:
    """The semidirect sum base |x ad(base): x . ad_y = ad_(x.y), ad.ad = 0."""
    ad = {l: f"ad_{l}" for l in base.labels}
    products = dict(base.products)
    for x in base.labels:
        for y in base.labels:
            value = {ad[l]: c for l, c in base.mul(x, y).items()}
            if value:
                products[(x, ad[y])] = value
    return Table(f"{base.name}AD",
                 base.even + tuple(ad[l] for l in base.even),
                 base.odd + tuple(ad[l] for l in base.odd), products)


def with_nilpotent(base: Table, n: int = 3) -> Table:
    """The direct sum base + t.k[t]/(t^n), basis t1 .. t_{n-1} (all even)."""
    ts = tuple(f"t{i}" for i in range(1, n))
    products = dict(base.products)
    for i in range(1, n):
        for j in range(i, n - i):
            products[(f"t{i}", f"t{j}")] = {f"t{i + j}": F(1)}
    return Table(f"{base.name}N{n - 1}", base.even + ts, base.odd, products)


def truncated_tensor(base: Table, n: int) -> Table:
    """base (x) k[t]/(t^n): (x t^i)(y t^j) = (x.y) t^(i+j), zero from t^n on."""
    def lab(l, i):
        return f"{l}{i}"
    products = {}
    for (x, y), value in base.products.items():
        for i in range(n):
            for j in range(n - i):
                if x == y and j < i:
                    continue  # the mirror of an entry already written
                products[(lab(x, i), lab(y, j))] = {
                    lab(l, i + j): c for l, c in value.items()}
    return Table(f"{base.name}T{n}",
                 tuple(lab(l, i) for l in base.even for i in range(n)),
                 tuple(lab(l, i) for l in base.odd for i in range(n)),
                 products)


def perturbed(base: Table, pair, label, factor) -> Table:
    """The same table with one structure constant multiplied by ``factor``."""
    products = dict(base.products)
    products[pair] = dict(products[pair])
    products[pair][label] *= factor
    return Table(f"{base.name}P", base.even, base.odd, products)


def rescaled(table: Table, rng: random.Random) -> Table:
    """The table in the basis f_i = lam_i e_i: c_ij^k -> c_ij^k lam_i lam_j / lam_k."""
    lam = {l: rng.choice(SCALES) for l in table.labels}
    products = {(a, b): {l: c * lam[a] * lam[b] / lam[l]
                         for l, c in value.items()}
                for (a, b), value in table.products.items()}
    return Table(table.name, table.even, table.odd, products)


def _scalar(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def alg_text(table: Table) -> str:
    lines = [f"algebra {table.name}"]
    if table.even:
        lines.append("even " + " ".join(table.even))
    if table.odd:
        lines.append("odd " + " ".join(table.odd))
    lines.append("")
    for (a, b), value in table.products.items():
        rhs = ""
        for l, c in value.items():
            if not rhs:
                rhs = f"{_scalar(c)}*{l}"
            else:
                rhs += f" {'-' if c < 0 else '+'} {_scalar(abs(c))}*{l}"
        lines.append(f"{a} * {b} = {rhs}")
    return "\n".join(lines) + "\n"


def base_tables() -> dict:
    """Every finite fixture of the benchmark, before rescaling, by file stem.

    The perturbed table doubles eps1.a2 in K3 (x) k[t]/(t^4); the half-unit
    law then fails, so `check` and `bracket` must both exit 1 on it.
    """
    base = k3()
    tables = {
        "k3": base,
        "k3ad": with_adjoint(base),
        "k3n2": with_nilpotent(base, 3),
    }
    for n in (2, 4, 6, 8):
        tables[f"k3t{n}"] = truncated_tensor(base, n)
    tables["k3t4p"] = perturbed(tables["k3t4"], ("eps1", "a2"), "a3", F(2))
    return tables


def write_fixtures(directory: Path, seed: int, stems=None) -> dict:
    """Write the rescaled fixtures (all, or those in ``stems``);
    returns {stem: (path, table)}.  Each table draws its scales from its
    own generator, so a subset gets the same tables as the full set."""
    out = {}
    for stem, table in base_tables().items():
        if stems is not None and stem not in stems:
            continue
        table = rescaled(table, random.Random(f"{seed}:{stem}"))
        path = directory / f"{stem}.alg"
        path.write_text(alg_text(table), encoding="utf-8")
        out[stem] = (path, table)
    return out
