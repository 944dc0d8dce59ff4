"""Exact linear algebra over Q for the cohomology machinery.

Matrices are lists of rows of Fractions.  Elimination keeps everything in
exact rationals; pivots are chosen to keep numerators and denominators small
(the entry minimising |num|*|den| in the current column).  A row update
touches only the pivot row's nonzero columns, so the sparse coboundary
matrices cost far less than their full width.  `rank` re-runs the
elimination with the column order reversed and insists both passes agree.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "mat_zero",
    "mat_mul",
    "mat_vec",
    "mat_is_zero",
    "transpose",
    "rref",
    "rank",
    "nullspace",
    "solve",
]


def mat_zero(rows: int, cols: int) -> list:
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    if len(b) != len(a[0]):
        raise ValueError(f"inner dimensions differ: {len(a)}x{len(a[0])} "
                         f"times {len(b)}x{len(b[0])}")
    b_nonzero = [[(j, c) for j, c in enumerate(row) if c] for row in b]
    out = mat_zero(len(a), len(b[0]))
    for row, oi in zip(a, out):
        for c, bt in zip(row, b_nonzero):
            if c:
                for j, d in bt:
                    oi[j] += c * d
    return out

def mat_vec(a: list, v: list) -> list:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0))
            for row in a]


def mat_is_zero(a: list) -> bool:
    return all(not c for row in a for c in row)


def transpose(a: list) -> list:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def _pivot_weight(c: Fraction):
    return abs(c.numerator) * c.denominator


def _eliminate(mat: list, col_order) -> tuple:
    """Forward elimination following the given column order.

    Returns (working matrix, pivot list as (row, col) pairs).  The working
    matrix is row-reduced but not normalised.
    """
    work = [list(row) for row in mat]
    nrows = len(work)
    pivots = []
    pivot_row = 0
    for col in col_order:
        best = None
        for r in range(pivot_row, nrows):
            c = work[r][col]
            if c:
                w = _pivot_weight(c)
                if best is None or w < best[0]:
                    best = (w, r)
        if best is None:
            continue
        r = best[1]
        work[pivot_row], work[r] = work[r], work[pivot_row]
        prow = work[pivot_row]
        pc = prow[col]
        support = [(j, b) for j, b in enumerate(prow) if b]
        for r2 in range(nrows):
            row = work[r2]
            if r2 == pivot_row or not row[col]:
                continue
            factor = row[col] / pc
            for j, b in support:
                row[j] -= factor * b
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == nrows:
            break
    return work, pivots


def rref(mat: list) -> tuple:
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    The result is canonical: two matrices have equal row spaces iff their
    rrefs coincide (after dropping zero rows, which this function does).
    """
    if not mat:
        return [], []
    ncols = len(mat[0])
    work, pivots = _eliminate(mat, range(ncols))
    out = []
    pivot_cols = []
    for r, c in sorted(pivots, key=lambda rc: rc[1]):
        row = work[r]
        out.append([a / row[c] for a in row])
        pivot_cols.append(c)
    return out, pivot_cols


def rank(mat: list, self_check: bool = True) -> int:
    if not mat or not mat[0]:
        return 0
    _, pivots = _eliminate(mat, range(len(mat[0])))
    r = len(pivots)
    if self_check:
        _, pivots2 = _eliminate(mat, range(len(mat[0]) - 1, -1, -1))
        if len(pivots2) != r:
            raise AssertionError("rank self-check failed (elimination order)")
    return r


def nullspace(mat: list, ncols: int | None = None) -> list:
    """A basis of the right kernel, from the canonical rref parametrisation."""
    if not mat:
        return [] if not ncols else [
            [Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    ncols = len(mat[0]) if ncols is None else ncols
    red, pivot_cols = rref(mat)
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, pc in zip(red, pivot_cols):
            vec[pc] = -row[f]
        basis.append(vec)
    return basis


def solve(mat: list, rhs: list):
    """One exact solution of mat * x = rhs, or None if inconsistent."""
    if not mat:
        return [] if all(not c for c in rhs) else None
    ncols = len(mat[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    red, pivot_cols = rref(aug)
    for row, pc in zip(red, pivot_cols):
        if pc == ncols:
            return None  # a pivot in the constant column: inconsistent
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivot_cols):
        x[pc] = row[ncols]
    return x
