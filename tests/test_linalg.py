"""Exact sparse linear algebra over the rationals.

`linalg` works on rows {column: nonzero Fraction or int}, and eliminates on
their primitive integer multiples.  The dense elimination below, on full
lists of Fractions, is an independent reference for it; integer multiples
of its rows must give the same rank, rref, nullspace and solutions.
"""

import copy
import math
import random
import unittest
from fractions import Fraction

from antalg import linalg

F = Fraction


# ---------------------------------------------------------------------------
# dense helpers and the dense reference elimination
# ---------------------------------------------------------------------------

def sparse(dense):
    """Dense rows -> `linalg` rows."""
    return [{j: c for j, c in enumerate(row) if c} for row in dense]


def densify(rows, ncols):
    """`linalg` rows (or one row, as a dict) -> dense rows (or one row)."""
    if isinstance(rows, dict):
        return [rows.get(j, F(0)) for j in range(ncols)]
    return [densify(row, ncols) for row in rows]


def mat_zero(rows, cols):
    return [[F(0)] * cols for _ in range(rows)]


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), F(0))
            for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def _dense_eliminate(mat, col_order):
    """Gauss-Jordan elimination in the given column order, pivot of least
    |num|*den; returns (working matrix, [(row, col) pivots])."""
    work = [list(row) for row in mat]
    nrows = len(work)
    pivots = []
    pivot_row = 0
    for col in col_order:
        best = None
        for r in range(pivot_row, nrows):
            c = work[r][col]
            if c:
                w = abs(c.numerator) * c.denominator
                if best is None or w < best[0]:
                    best = (w, r)
        if best is None:
            continue
        r = best[1]
        work[pivot_row], work[r] = work[r], work[pivot_row]
        prow = work[pivot_row]
        pc = prow[col]
        for r2 in range(nrows):
            row = work[r2]
            if r2 == pivot_row or not row[col]:
                continue
            factor = row[col] / pc
            for j in range(len(row)):
                row[j] -= factor * prow[j]
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == nrows:
            break
    return work, pivots


def dense_rref(mat, ncols):
    work, pivots = _dense_eliminate(mat, range(ncols))
    out, pivot_cols = [], []
    for r, c in sorted(pivots, key=lambda rc: rc[1]):
        out.append([a / work[r][c] for a in work[r]])
        pivot_cols.append(c)
    return out, pivot_cols


def dense_rank(mat, ncols):
    return len(_dense_eliminate(mat, range(ncols))[1])


def dense_nullspace(mat, ncols):
    red, pivot_cols = dense_rref(mat, ncols)
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [F(0)] * ncols
        vec[f] = F(1)
        for row, pc in zip(red, pivot_cols):
            vec[pc] = -row[f]
        basis.append(vec)
    return basis


def dense_solve(mat, rhs, ncols):
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivot_cols = dense_rref(aug, ncols + 1)
    if ncols in pivot_cols:
        return None
    x = [F(0)] * ncols
    for row, pc in zip(red, pivot_cols):
        x[pc] = row[ncols]
    return x


def _rand_matrix(rng, rows, cols, bound=6):
    return [[F(rng.randint(-bound, bound), rng.choice([1, 1, 2, 3]))
             for _ in range(cols)] for _ in range(rows)]


def _rand_sparse_dense(rng, rows, cols, density):
    """A dense matrix whose cells are nonzero with the given probability;
    one row in four is forced to zero."""
    out = []
    for _ in range(rows):
        zero_row = rng.random() < 0.25
        out.append([F(rng.randint(-6, 6) or 1, rng.choice([1, 1, 2, 3]))
                    if not zero_row and rng.random() < density else F(0)
                    for _ in range(cols)])
    return out


def _stores_no_zero(rows):
    return all(c for row in rows for c in row.values())


def _holds_fractions(rows):
    return all(type(c) is F for row in rows for c in row.values())


def _integer_multiples(dense, rng):
    """Each dense row times a random nonzero integer that clears its
    denominators: (int rows with the same row space, the factors)."""
    factors = [math.lcm(*(c.denominator for c in row))
               * rng.choice((-3, -2, -1, 1, 2, 5)) for row in dense]
    return [[int(c * k) for c in row]
            for row, k in zip(dense, factors)], factors


# ---------------------------------------------------------------------------
# the sparse engine against the dense reference
# ---------------------------------------------------------------------------

class AgainstDenseReference(unittest.TestCase):
    """Seeded random matrices at densities 0.05, 0.3 and 1.0, with empty
    rows, all-zero matrices and matrices without rows."""

    def _cases(self, density, seed):
        rng = random.Random(seed)
        cases = [([], 3), (mat_zero(3, 4), 4), (mat_zero(1, 1), 1)]
        for _ in range(25):
            n, m = rng.randint(1, 14), rng.randint(1, 14)
            cases.append((_rand_sparse_dense(rng, n, m, density), m))
        return rng, cases

    def _check(self, density, seed):
        rng, cases = self._cases(density, seed)
        int_rng = random.Random(seed + 1000)
        for dense, m in cases:
            rows = sparse(dense)
            int_dense, factors = _integer_multiples(dense, int_rng)
            ints = sparse(int_dense)
            self.assertTrue(all(type(c) is int
                                for row in ints for c in row.values()))
            before = [dict(row) for row in rows]
            int_before = [dict(row) for row in ints]
            rank = dense_rank(dense, m)
            self.assertEqual(linalg.rank(rows), rank)
            self.assertEqual(linalg.rank(ints), rank)
            for mat in (rows, ints):
                self._check_pivot_rows(mat, rank)
            red, pivots = linalg.rref(rows)
            want_red, want_pivots = dense_rref(dense, m)
            self.assertEqual(densify(red, m), want_red)
            self.assertEqual(pivots, want_pivots)
            self.assertTrue(_stores_no_zero(red))
            self.assertTrue(_holds_fractions(red))
            int_red = linalg.rref(ints)
            self.assertEqual(int_red, (red, pivots))
            self.assertTrue(_holds_fractions(int_red[0]))
            ns = linalg.nullspace(rows, m)
            self.assertEqual(densify(ns, m), dense_nullspace(dense, m))
            self.assertTrue(_stores_no_zero(ns))
            self.assertTrue(_holds_fractions(ns))
            int_ns = linalg.nullspace(ints, m)
            self.assertEqual(int_ns, ns)
            self.assertTrue(_holds_fractions(int_ns))
            # a consistent right-hand side, then an arbitrary one
            x0 = [F(rng.randint(-4, 4)) for _ in range(m)]
            for rhs in (mat_vec(dense, x0),
                        [F(rng.randint(-3, 3)) for _ in dense]):
                got = linalg.solve(rows, rhs, m)
                want = dense_solve(dense, rhs, m)
                # the same system on the integer rows: each equation scaled
                self.assertEqual(linalg.solve(ints, [
                    b * k for b, k in zip(rhs, factors)], m), got)
                if want is None:
                    self.assertIsNone(got)
                else:
                    self.assertEqual(densify(got, m), want)
                    self.assertTrue(all(got.values()))
                    self.assertTrue(_holds_fractions([got]))
            self.assertEqual(rows, before)  # inputs are left untouched
            self.assertEqual(ints, int_before)

    def _check_pivot_rows(self, mat, rank):
        """Both elimination orders give ``rank`` pivot rows, each a
        primitive int row: int entries with gcd 1."""
        for descending in (False, True):
            steps = linalg._eliminate(mat, descending)
            self.assertEqual(len(steps), rank)
            for col, row in steps:
                self.assertIsNotNone(col)
                self.assertIn(col, row)
                self.assertTrue(all(type(c) is int for c in row.values()))
                self.assertEqual(math.gcd(*row.values()), 1)

    def test_density_0_05(self):
        self._check(0.05, 101)

    def test_density_0_3(self):
        self._check(0.3, 102)

    def test_density_1_0(self):
        self._check(1.0, 103)

    def test_mat_mul_matches_the_dense_result(self):
        rng = random.Random(104)
        for density in (0.05, 0.3, 1.0):
            for _ in range(10):
                n, k, m = (rng.randint(1, 9) for _ in range(3))
                a = _rand_sparse_dense(rng, n, k, density)
                b = _rand_sparse_dense(rng, k, m, density)
                dense = [mat_vec(transpose(b), row) for row in a]
                prod = linalg.mat_mul(sparse(a), sparse(b))
                self.assertEqual(densify(prod, m), dense)
                self.assertTrue(_stores_no_zero(prod))
                self.assertEqual(linalg.mat_is_zero(prod),
                                 all(not c for row in dense for c in row))
                # on int rows, as the delta^2 check runs: (6a)(6b) = 36ab
                ints = linalg.mat_mul(*(sparse([[int(6 * c) for c in row]
                                                for row in x]) for x in (a, b)))
                self.assertEqual(densify(ints, m),
                                 [[36 * c for c in row] for row in dense])
                self.assertTrue(_stores_no_zero(ints))
                self.assertTrue(all(type(c) is int
                                    for row in ints for c in row.values()))

    def test_solve_eliminates_once(self):
        """`solve` back-substitutes on the pivot rows of its one
        elimination, for a consistent and for an inconsistent target."""
        calls = []
        original = linalg._eliminate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        linalg._eliminate = counting
        try:
            rows = sparse([[F(1), F(2), F(0)], [F(2), F(4), F(1)],
                           [F(0), F(0), F(3)]])
            for rhs in ([F(1), F(3), F(3)], [F(0), F(1), F(1)]):
                del calls[:]
                linalg.solve(rows, rhs, 3)
                self.assertEqual(len(calls), 1)
        finally:
            linalg._eliminate = original

    def test_rank_runs_its_reversed_order_self_check(self):
        rows = sparse([[F(1), F(2)], [F(2), F(4)]])
        original = linalg._eliminate

        def disagreeing(mat, descending=False):
            pivots = original(mat, descending)
            return pivots + pivots if descending else pivots
        linalg._eliminate = disagreeing
        try:
            with self.assertRaisesRegex(AssertionError, "self-check"):
                linalg.rank(rows)
        finally:
            linalg._eliminate = original


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------

class RankAndRref(unittest.TestCase):
    def test_rank_frozen(self):
        a = [[F(1), F(2)], [F(2), F(4)]]
        self.assertEqual(linalg.rank(sparse(a)), 1)
        b = [[F(1), F(0), F(1)],
             [F(0), F(1), F(1)],
             [F(1), F(1), F(2)]]
        self.assertEqual(linalg.rank(sparse(b)), 2)
        self.assertEqual(linalg.rank([]), 0)

    def test_rref_is_canonical(self):
        a = [[F(2), F(4), F(2)], [F(1), F(3), F(2)]]
        r, pivots = linalg.rref(sparse(a))
        self.assertEqual(densify(r, 3), [[F(1), F(0), F(-1)], [F(0), F(1), F(1)]])
        self.assertEqual(list(pivots), [0, 1])

    def test_rref_fixed_point(self):
        rng = random.Random(5)
        for _ in range(20):
            a = sparse(_rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))
            r, _ = linalg.rref(a)
            r2, _ = linalg.rref(r)
            self.assertEqual(r, r2)


class InputsUnchanged(unittest.TestCase):
    """Callers may share row dicts between systems, and one dict may occur
    twice in one system, so no routine may change its input."""

    def test_solve_rref_nullspace_and_rank_leave_their_input_alone(self):
        rng = random.Random(59)
        for _ in range(30):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            rows = sparse(_rand_sparse_dense(rng, n, m, rng.choice([0.2, 0.6])))
            # alias some rows: the same dict object at two positions
            for _ in range(rng.randint(0, 3)):
                rows.insert(rng.randint(0, len(rows)), rng.choice(rows))
            x0 = [F(rng.randint(-4, 4)) for _ in range(m)]
            consistent = mat_vec(densify(rows, m), x0)
            arbitrary = [F(rng.randint(-3, 3)) for _ in rows]
            ids = [id(row) for row in rows]
            before = copy.deepcopy(rows)
            for rhs in (consistent, arbitrary):
                rhs_before = list(rhs)
                linalg.solve(rows, rhs, m)
                self.assertEqual(rhs, rhs_before)
            linalg.rref(rows)
            linalg.nullspace(rows, m)
            linalg.rank(rows)
            self.assertEqual([id(row) for row in rows], ids)
            self.assertEqual(rows, before)

    def test_int_rows_eliminate_as_their_fractions_and_stay_unchanged(self):
        """Rows of `int`s skip the denominator lcm of `_primitive`; the
        elimination is the one of the same rows as `Fraction`s, and it
        neither changes nor returns the caller's rows, primitive ones
        (gcd 1, no division) included."""
        rng = random.Random(61)
        for _ in range(40):
            n, m = rng.randint(1, 10), rng.randint(1, 10)
            dense, _ = _integer_multiples(
                _rand_sparse_dense(rng, n, m, rng.choice([0.3, 0.8])), rng)
            rows = [{j: c for j, c in enumerate(row) if c} for row in dense]
            rows.append({0: 1, m - 1: -1} if m > 1 else {0: 1})  # primitive
            rows.insert(rng.randint(0, len(rows)), rng.choice(rows))
            fractions = [{j: F(c) for j, c in row.items()} for row in rows]
            before = copy.deepcopy(rows)
            for descending in (False, True):
                steps = linalg._eliminate(rows, descending)
                self.assertEqual(steps,
                                 linalg._eliminate(fractions, descending))
                self.assertTrue(all(type(c) is int
                                    for _, row in steps for c in row.values()))
                self.assertFalse({id(row) for _, row in steps}
                                 & {id(row) for row in rows})
                self.assertEqual(rows, before)


class SparseInput(unittest.TestCase):
    """Matrices at about 10% density, where a row update touches only the
    pivot row's few nonzero columns."""

    def test_rank_rref_nullspace_and_solve(self):
        rng = random.Random(41)
        for _ in range(12):
            n, m = rng.randint(1, 40), rng.randint(1, 40)
            a = [[F(rng.randint(-6, 6) or 1, rng.choice([1, 1, 2, 3]))
                  if rng.random() < 0.1 else F(0)
                  for _ in range(m)] for _ in range(n)]
            rows = sparse(a)
            self.assertEqual(linalg.rank(rows), linalg.rank(sparse(transpose(a))))
            r, _ = linalg.rref(rows)
            self.assertEqual(linalg.rref(r)[0], r)
            ns = linalg.nullspace(rows, m)
            self.assertEqual(linalg.rank(rows) + len(ns), m)
            for v in ns:
                self.assertTrue(linalg.mat_is_zero(
                    sparse([mat_vec(a, densify(v, m))])))
            x0 = [F(rng.randint(-4, 4)) for _ in range(m)]
            rhs = mat_vec(a, x0)
            self.assertEqual(mat_vec(a, densify(linalg.solve(rows, rhs, m), m)),
                             rhs)


class SolveAndNullspace(unittest.TestCase):
    def test_solve_frozen(self):
        a = [[F(1), F(1)], [F(1), F(-1)]]
        x = linalg.solve(sparse(a), [F(3), F(1)], 2)
        self.assertEqual(densify(x, 2), [F(2), F(1)])
        self.assertIsNone(linalg.solve(sparse([[F(1), F(1)], [F(2), F(2)]]),
                                       [F(0), F(1)], 2))

    def test_solve_verifies(self):
        rng = random.Random(17)
        for _ in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            a = _rand_matrix(rng, n, m)
            xs = [F(rng.randint(-4, 4)) for _ in range(m)]
            rhs = mat_vec(a, xs)
            sol = linalg.solve(sparse(a), rhs, m)
            self.assertIsNotNone(sol)
            self.assertEqual(mat_vec(a, densify(sol, m)), rhs)

    def test_nullspace_frozen(self):
        a = [[F(1), F(2), F(3)]]
        ns = linalg.nullspace(sparse(a), 3)
        self.assertEqual(len(ns), 2)
        for v in ns:
            self.assertEqual(mat_vec(a, densify(v, 3)), [F(0)])

    def test_rank_nullity(self):
        rng = random.Random(23)
        for _ in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 6)
            a = _rand_matrix(rng, n, m)
            ns = linalg.nullspace(sparse(a), m)
            self.assertEqual(linalg.rank(sparse(a)) + len(ns), m)
            for v in ns:
                self.assertTrue(all(c == 0 for c in mat_vec(a, densify(v, m))))

    def test_nullspace_of_zero_map(self):
        ns = linalg.nullspace([], 3)
        self.assertEqual(len(ns), 3)


class SolveManyTargets(unittest.TestCase):
    """`solve` on several right-hand sides of one sparse matrix with zero
    and repeated rows, one call each: what the dense reference gives, and
    A x = b exactly wherever an answer comes back."""

    def _check(self, dense, rhs, m):
        got = linalg.solve(sparse(dense), rhs, m)
        want = dense_solve(dense, rhs, m)
        if want is None:
            self.assertIsNone(got)
        else:
            self.assertEqual(densify(got, m), want)
            self.assertEqual(mat_vec(dense, densify(got, m)), rhs)
            self.assertTrue(all(got.values()))
        return got

    def test_random_sparse_systems(self):
        rng = random.Random(19)
        seen = {"inconsistent": 0, "solved": 0}
        for _ in range(80):
            n, m = rng.randint(1, 9), rng.randint(1, 9)  # either may be larger
            dense = _rand_sparse_dense(rng, n, m, rng.choice([0.1, 0.4, 1.0]))
            for _ in range(rng.randint(0, 3)):  # repeated rows
                dense.insert(rng.randint(0, len(dense)), rng.choice(dense))
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["consistent", "arbitrary", "zero"])
                if kind == "consistent":
                    x0 = [F(rng.randint(-4, 4), rng.choice([1, 2]))
                          for _ in range(m)]
                    rhs = mat_vec(dense, x0)
                elif kind == "arbitrary":
                    rhs = [F(rng.randint(-3, 3)) for _ in dense]
                else:
                    rhs = [F(0)] * len(dense)
                got = self._check(dense, rhs, m)
                seen["solved" if got is not None else "inconsistent"] += 1
        self.assertTrue(all(seen.values()), seen)

    def test_edge_cases(self):
        one, two = F(1), F(2)
        # x0 + x1 = 1 and 2 (x0 + x1) = 2, then x0 + x1 = 0 and
        # 2 (x0 + x1) = 1
        self.assertEqual(self._check([[one, one], [two, two]], [one, two], 2),
                         {0: one})
        self.assertIsNone(self._check([[one, one], [two, two]],
                                      [F(0), one], 2))
        # zero rows, an all-zero right-hand side, more columns than rows
        rows = [[F(0)] * 4, [one, F(0), two, F(0)], [F(0)] * 4]
        self.assertEqual(self._check(rows, [F(0)] * 3, 4), {})
        self.assertIsNone(self._check(rows, [one, F(0), F(0)], 4))
        # a zero matrix: only the all-zero right-hand side is consistent
        self.assertEqual(self._check([[F(0)] * 3] * 2, [F(0)] * 2, 3), {})
        self.assertIsNone(self._check([[F(0)] * 3] * 2, [one, F(0)], 3))
        # no rows: the zero solution
        self.assertEqual(linalg.solve([], [], 3), {})


class MatrixHelpers(unittest.TestCase):
    def test_mat_mul_and_transpose(self):
        a = [[F(1), F(2)], [F(0), F(1)]]
        b = [[F(1), F(0)], [F(3), F(1)]]
        self.assertEqual(linalg.mat_mul(sparse(a), sparse(b)),
                         sparse([[F(7), F(2)], [F(3), F(1)]]))
        self.assertEqual(transpose(a), [[F(1), F(0)], [F(2), F(1)]])
        self.assertEqual(sparse(mat_zero(2, 3)), [{}, {}])
        self.assertTrue(linalg.mat_is_zero(sparse(mat_zero(2, 3))))

    def test_mat_mul_rejects_an_inner_dimension_mismatch(self):
        a = [[F(1), F(2)], [F(0), F(1)]]
        with self.assertRaisesRegex(ValueError, "inner dimensions differ"):
            linalg.mat_mul(sparse(a), sparse([[F(1), F(0), F(2)]]))
        # only stored entries are checked: an empty column 1 goes unseen
        self.assertEqual(linalg.mat_mul([{0: F(2)}], [{0: F(3)}]), [{0: F(6)}])


if __name__ == "__main__":
    unittest.main()
