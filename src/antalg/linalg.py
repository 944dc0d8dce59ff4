"""Exact sparse linear algebra over Q for the cohomology machinery.

A matrix is a list of rows, and a row is a dict from column index to a
nonzero `Fraction` or `int`.  No zero is ever stored, so an empty dict is a
zero row.  A matrix does not carry its column count; the two functions that
need it (`nullspace`, `solve`) take it as an argument.  Kernel vectors,
rref rows and solutions come back as rows of nonzero `Fraction`s.

Elimination is fraction-free (Bareiss, 1968): it works on integer rows and
creates no `Fraction`.  Each input row is first replaced by a new dict, its
primitive integer multiple (times the lcm of its denominators, over the gcd
of its entries), which spans the same line, so `int` and `Fraction` rows are
eliminated alike; a row of `int`s skips the lcm and is only divided by its
gcd.  The columns are visited in order, and for each column the set of
unreduced rows that are nonzero there is kept, so only those rows are
looked at.  The pivot is the entry of least absolute value in its
column, ties going to the lower row.  A row update, row <- (p/g) row -
(f/g) pivot row with g = gcd(p, f), touches the pivot row's nonzero columns
(and scales the row when p/g is not 1), and the result is divided by the
gcd of its entries.  `rref` scales the pivot rows to leading 1s only at the
end, and `solve` back-substitutes on the pivot rows of its own elimination.
`rank` re-runs the elimination with the column order reversed and
insists both passes agree.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "mat_mul",
    "mat_is_zero",
    "rref",
    "rank",
    "nullspace",
    "solve",
]


def mat_mul(a: list, b: list) -> list:
    """a * b.  With no column count stored, only a nonzero of ``a`` in a
    column >= len(b) raises ValueError; empty trailing columns go unseen."""
    nb = len(b)
    out = []
    for row in a:
        acc: dict = {}
        for k, c in row.items():
            if k >= nb:
                raise ValueError(f"inner dimensions differ: the left factor "
                                 f"has column {k}, the right one {nb} rows")
            for j, d in b[k].items():
                acc[j] = acc.get(j, 0) + c * d
        out.append({j: v for j, v in acc.items() if v})
    return out


def mat_is_zero(a: list) -> bool:
    return not any(a)


def _primitive(row: dict) -> dict:
    """The primitive integer multiple of a nonzero row, as a new dict: times
    the lcm of its denominators, then divided by the gcd of its entries.  A
    row of `int`s has no denominator to clear, so only the gcd is taken."""
    if all(map(int.__instancecheck__, row.values())):
        g = math.gcd(*row.values())
        return {j: c // g for j, c in row.items()} if g != 1 else dict(row)
    den = math.lcm(*(c.denominator for c in row.values()))
    ints = {j: c.numerator * (den // c.denominator) for j, c in row.items()}
    g = math.gcd(*ints.values())
    return {j: c // g for j, c in ints.items()} if g != 1 else ints


def _eliminate(mat: list, descending=False, stop=float("inf")) -> list:
    """Fraction-free forward elimination in increasing (or decreasing)
    column order, on the primitive integer multiples of the rows.

    Returns the pivot rows, primitive int rows, as (column, row) pairs in
    elimination order.  A pivot row is zero in every column visited before
    its own.  Columns >= ``stop`` are not visited, and each row left
    nonzero (only there) follows the pivots as (None, row).  The input rows
    are not modified.
    """
    work = {i: _primitive(row) for i, row in enumerate(mat) if row}
    where: dict = {}  # column -> ids of the unreduced rows nonzero there
    for i, row in work.items():
        for j in row:
            where.setdefault(j, set()).add(i)
    pivots = []
    for col in sorted((j for j in where if j < stop), reverse=descending):
        ids = where.pop(col)
        if not ids:
            continue
        r = min(ids, key=lambda i: (abs(work[i][col]), i))
        ids.discard(r)
        prow = work.pop(r)
        p = prow[col]
        rest = [(j, b) for j, b in prow.items() if j != col]
        for j, _ in rest:
            where[j].discard(r)
        for i in ids:
            # row <- (p/g) row - (f/g) prow, g = gcd(p, f), then made primitive
            row = work[i]
            f = row.pop(col)
            g = math.gcd(p, f)
            a, f = p // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, b in rest:
                x = row.get(j)
                if x is None:
                    row[j] = -f * b
                    where[j].add(i)
                else:
                    x -= f * b
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        where[j].discard(i)
            if not row:
                del work[i]
            elif (g := math.gcd(*row.values())) != 1:
                for j in row:
                    row[j] //= g
        pivots.append((col, prow))
        if not work:
            break
    return pivots + [(None, row) for row in work.values()]


def _back_substitute(pivots) -> tuple:
    """(rref rows, pivot columns) of the echelon pivot rows of `_eliminate`,
    given as its (column, row) pairs in elimination order, each row zero in
    the pivot columns before its own: each later pivot column is cleared
    from each row, and the rows are scaled to leading 1s at the end."""
    reduced: dict = {}  # pivot column -> its primitive int row
    for col, row in reversed(pivots):
        # the rows in `reduced` are zero in each other's pivot columns, so
        # clearing their pivot columns here fills in none of them
        for pc in [j for j in row if j in reduced]:
            # row <- (d/g) row - (f/g) red, d and f their entries at pc
            red = reduced[pc]
            g = math.gcd(red[pc], row[pc])
            a, f = red[pc] // g, row[pc] // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, b in red.items():
                x = row.get(j, 0) - f * b
                if x:
                    row[j] = x
                else:
                    del row[j]
        g = math.gcd(*row.values())
        reduced[col] = {j: c // g for j, c in row.items()}
    pivot_cols = sorted(reduced)
    return [{j: Fraction(c, reduced[pc][pc]) for j, c in reduced[pc].items()}
            for pc in pivot_cols], pivot_cols


def rref(mat: list) -> tuple:
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    The result is canonical: two matrices have equal row spaces iff their
    rrefs coincide (zero rows are dropped).  Its rows hold `Fraction`s.
    """
    return _back_substitute(_eliminate(mat))


def rank(mat: list) -> int:
    r = len(_eliminate(mat))
    if len(_eliminate(mat, descending=True)) != r:
        raise AssertionError("rank self-check failed (elimination order)")
    return r


def nullspace(mat: list, ncols: int) -> list:
    """A basis of the right kernel, from the canonical rref parametrisation."""
    red, pivot_cols = rref(mat)
    pivots = set(pivot_cols)
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivots}
    for row, pc in zip(red, pivot_cols):
        for j, c in row.items():
            if j != pc:
                basis[j][pc] = -c
    return list(basis.values())


def solve(mat: list, rhs: list, ncols: int):
    """One exact solution of mat * x = rhs, as a row, or None if the system
    is inconsistent: the canonical one, on the rref pivots of ``mat`` with
    the free variables zero.  ``rhs`` has one scalar per row of ``mat``.
    The right-hand side is column ncols of one elimination that stops
    before it, and its pivot rows are back-substituted as they stand.  With
    no rows the answer is {}."""
    steps = _eliminate([{**row, ncols: b} if b else row
                        for row, b in zip(mat, rhs, strict=True)], stop=ncols)
    if steps and steps[-1][0] is None:  # a row 0 = b with b nonzero
        return None
    red, pivot_cols = _back_substitute(steps)
    return {pc: row[ncols] for row, pc in zip(red, pivot_cols)
            if ncols in row}
