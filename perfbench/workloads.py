"""The benchmark's workloads: lists of CLI commands with their references.

cohomology  `cohomology --kmax` on K3 (trivial, adjoint, dual-adjoint
            coefficients, k <= 6), K3 |x ad(K3) (trivial and adjoint,
            k <= 4) and K3 + t.k[t]/(t^3) (trivial k <= 4, adjoint k <= 3).
            Delta assembly dominates; rank and the delta^2 check follow.
            K3 + N2 has odd dimension 2, so delta^2 = 0 holds on it today
            and rank is really exercised.
windows     the seven `verify` suites at their default windows: dense
            Fraction `linalg.solve` and lazy per-instance `delta_instance`,
            no matrix assembly and no rank.  A change to shared delta or
            linalg code that helps `cohomology` but costs this shows here.
axioms      `check` and `bracket` on K3, K3 |x ad(K3), K3 (x) k[t]/(t^n)
            for n in 2, 4, 6, 8 (up to 8|16 with a 128-line table) and one
            perturbed table that must exit 1: the identity checkers, the
            [m,m] bracket engine and parsing.  No delta and no linalg.

A command's `defect` names a known defect of the program and the way it
shows today.  Such a command still counts as failed; the benchmark's
verdict `correct` only requires that it fails in that recorded way (or
passes).  Once a fix lets one finish, it does more work, such as rank,
and `wall_s` grows accordingly.
"""

from __future__ import annotations

import reference

SUITES = ("gamma", "eta", "gf", "dual-gf", "gv", "ak1-axioms", "m1-axioms")

# fixture stems each workload reads
FIXTURES = {
    "cohomology": ("k3", "k3ad", "k3n2"),
    "windows": (),
    "axioms": ("k3", "k3ad", "k3t2", "k3t4", "k3t6", "k3t8", "k3t4p"),
}

# largest degree any workload asks for; per-degree metrics run up to it
KMAX = 6

DEFECT_DELTA2 = ("raised AssertionError",
                 "delta^2 != 0 on K3 |x ad(K3) (ROADMAP item 1)")
DEFECT_ETA = ("exit 1", "verify eta fails (acceptance criterion 8)")


class Command:
    __slots__ = ("name", "argv", "expect", "check", "defect")

    def __init__(self, name, argv, expect, check, defect=None):
        self.name = name
        self.argv = list(argv) + ["--format", "structured"]
        self.expect = expect
        self.check = check
        self.defect = defect


def commands(workload: str, fixtures: dict) -> list:
    """The commands of one workload; ``fixtures`` maps stem -> (path, table)."""
    if workload == "cohomology":
        runs = [("k3", c, 6) for c in ("trivial", "adjoint", "dual-adjoint")]
        runs += [("k3ad", "trivial", 4), ("k3ad", "adjoint", 4),
                 ("k3n2", "trivial", 4), ("k3n2", "adjoint", 3)]
        out = []
        for stem, coeff, kmax in runs:
            path, table = fixtures[stem]
            out.append(Command(
                f"cohomology:{stem}:{coeff}:{kmax}",
                ["cohomology", "--input", str(path), "--coefficients", coeff,
                 "--kmax", str(kmax)],
                0, reference.check_cohomology(table, stem, coeff, kmax),
                DEFECT_DELTA2 if stem == "k3ad" else None))
        return out
    if workload == "windows":
        return [Command(f"verify:{s}", ["verify", s], 0,
                        reference.check_verify(s),
                        DEFECT_ETA if s == "eta" else None)
                for s in SUITES]
    if workload == "axioms":
        out = []
        for stem in FIXTURES["axioms"]:
            path, table = fixtures[stem]
            valid = stem != "k3t4p"
            out.append(Command(f"check:{stem}", ["check", "--input", str(path)],
                               0 if valid else 1,
                               reference.check_check(table, valid)))
            out.append(Command(f"bracket:{stem}", ["bracket", "--input", str(path)],
                               0 if valid else 1,
                               reference.check_bracket(valid)))
        return out
    raise ValueError(f"unknown workload {workload!r}")
