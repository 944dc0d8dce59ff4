"""Exact linear algebra over the rationals."""

import random
import unittest
from fractions import Fraction

from antalg import linalg

F = Fraction


def _rand_matrix(rng, rows, cols, bound=6):
    return [[F(rng.randint(-bound, bound), rng.choice([1, 1, 2, 3]))
             for _ in range(cols)] for _ in range(rows)]


class RankAndRref(unittest.TestCase):
    def test_rank_frozen(self):
        a = [[F(1), F(2)], [F(2), F(4)]]
        self.assertEqual(linalg.rank(a), 1)
        b = [[F(1), F(0), F(1)],
             [F(0), F(1), F(1)],
             [F(1), F(1), F(2)]]
        self.assertEqual(linalg.rank(b), 2)
        self.assertEqual(linalg.rank([]), 0)

    def test_rref_is_canonical(self):
        a = [[F(2), F(4), F(2)], [F(1), F(3), F(2)]]
        r, pivots = linalg.rref(a)
        self.assertEqual(r, [[F(1), F(0), F(-1)], [F(0), F(1), F(1)]])
        self.assertEqual(list(pivots), [0, 1])

    def test_rref_fixed_point(self):
        rng = random.Random(5)
        for _ in range(20):
            a = _rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            r, _ = linalg.rref(a)
            r2, _ = linalg.rref(r)
            self.assertEqual(r, r2)


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
            self.assertEqual(linalg.rank(a), linalg.rank(linalg.transpose(a)))
            r, _ = linalg.rref(a)
            self.assertEqual(linalg.rref(r)[0], r)
            ns = linalg.nullspace(a, m)
            self.assertEqual(linalg.rank(a) + len(ns), m)
            for v in ns:
                self.assertTrue(linalg.mat_is_zero([linalg.mat_vec(a, v)]))
            x0 = [F(rng.randint(-4, 4)) for _ in range(m)]
            rhs = linalg.mat_vec(a, x0)
            self.assertEqual(linalg.mat_vec(a, linalg.solve(a, rhs)), rhs)


class SolveAndNullspace(unittest.TestCase):
    def test_solve_frozen(self):
        a = [[F(1), F(1)], [F(1), F(-1)]]
        x = linalg.solve(a, [F(3), F(1)])
        self.assertEqual(x, [F(2), F(1)])
        self.assertIsNone(linalg.solve([[F(1), F(1)], [F(2), F(2)]],
                                       [F(0), F(1)]))

    def test_solve_verifies(self):
        rng = random.Random(17)
        for _ in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            a = _rand_matrix(rng, n, m)
            xs = [F(rng.randint(-4, 4)) for _ in range(m)]
            rhs = linalg.mat_vec(a, xs)
            sol = linalg.solve(a, rhs)
            self.assertIsNotNone(sol)
            self.assertEqual(linalg.mat_vec(a, sol), rhs)

    def test_nullspace_frozen(self):
        a = [[F(1), F(2), F(3)]]
        ns = linalg.nullspace(a, 3)
        self.assertEqual(len(ns), 2)
        for v in ns:
            self.assertEqual(linalg.mat_vec(a, v), [F(0)])

    def test_rank_nullity(self):
        rng = random.Random(23)
        for _ in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 6)
            a = _rand_matrix(rng, n, m)
            ns = linalg.nullspace(a, m)
            self.assertEqual(linalg.rank(a) + len(ns), m)
            for v in ns:
                self.assertTrue(all(c == 0 for c in linalg.mat_vec(a, v)))

    def test_nullspace_of_zero_map(self):
        ns = linalg.nullspace([], 3)
        self.assertEqual(len(ns), 3)


class MatrixHelpers(unittest.TestCase):
    def test_mat_mul_and_transpose(self):
        a = [[F(1), F(2)], [F(0), F(1)]]
        b = [[F(1), F(0)], [F(3), F(1)]]
        self.assertEqual(linalg.mat_mul(a, b), [[F(7), F(2)], [F(3), F(1)]])
        self.assertEqual(linalg.transpose(a), [[F(1), F(0)], [F(2), F(1)]])
        self.assertTrue(linalg.mat_is_zero(linalg.mat_zero(2, 3)))

    def test_mat_mul_rejects_an_inner_dimension_mismatch(self):
        a = [[F(1), F(2)], [F(0), F(1)]]
        with self.assertRaisesRegex(ValueError, "inner dimensions differ"):
            linalg.mat_mul(a, [[F(1), F(0), F(2)]])


if __name__ == "__main__":
    unittest.main()
