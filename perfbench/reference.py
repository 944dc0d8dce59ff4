"""Reference answers for every benchmark command, none read off the program.

- dim C^k by the closed form  sum_{p+q=k} dim0^p * C(dim1, q) * dim B_{q mod 2}.
- Ranks of delta^k: K3 through k = 4 as pinned in tests/test_cohomology.py;
  the rest from an independent route, the bracket-engine coboundary
  `delta_via_bracket` applied to unit cochains, with the rank taken by the
  exact elimination in this file.  `python3 perfbench/reference.py`
  recomputes them.  K3 |x ad(K3) has no rank reference: today its complex
  is not a complex (ROADMAP item 1), so the paper's verdict is the reference.
- The number of instances `check` decides, by the closed form of the three
  identity systems it runs.
- The paper's verdicts: every fixture but the perturbed one is a valid
  structure with [m,m] = 0, delta^2 = 0 on every complex, and every named
  suite passes.

A checker takes the command's structured output and returns the list of
disagreements; an empty list means the output is correct.
"""

from __future__ import annotations

from math import comb

# ranks of delta^1 .. delta^kmax, by (fixture, coefficients)
RANKS = {
    ("k3", "trivial"): (1, 1, 1, 1, 1, 1),
    ("k3", "adjoint"): (2, 4, 2, 4, 2, 4),
    ("k3", "dual-adjoint"): (2, 4, 2, 4, 2, 4),
    ("k3n2", "trivial"): (2, 7, 22, 67),
    ("k3n2", "adjoint"): (8, 32, 92),
}


def parse_structured(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def module_dims(table, coefficients):
    """(even, odd) dimension of the coefficient module."""
    if coefficients == "trivial":
        return 1, 0
    return len(table.even), len(table.odd)  # adjoint and its dual


def cochain_dim(table, coefficients, k: int) -> int:
    d0, d1 = len(table.even), len(table.odd)
    mod = module_dims(table, coefficients)
    return sum(d0 ** (k - q) * comb(d1, q) * mod[q % 2]
               for q in range(0, min(k, d1) + 1))


def checked_count(table) -> int:
    """Instances decided by `check`: check_axioms, check_axioms_v2 and the
    four blocks of [m,m]."""
    d0, d1 = len(table.even), len(table.odd)
    n = d0 + d1
    axioms = 2 * n * n + d0 ** 3 + d0 * d0 * d1 + d0 * d1 * d1 + d1 ** 3
    axioms_v2 = 2 * n * n + d0 ** 3 + d0 * d0 * n + n * n * d1
    square = sum(d0 ** p * comb(d1, q) for p, q in ((3, 0), (2, 1), (1, 2), (0, 3)))
    return axioms + axioms_v2 + square


def _expect(out: dict, key: str, want, problems: list) -> None:
    got = out.get(key)
    if got != str(want):
        problems.append(f"{key}={got} (reference {want})")


def check_cohomology(table, stem, coefficients, kmax):
    ranks = RANKS.get((stem, coefficients))

    def checker(text: str) -> list:
        out = parse_structured(text)
        problems = []
        _expect(out, "schema", 1, problems)
        _expect(out, "coefficients", coefficients, problems)
        prev_rank = 0
        for k in range(1, kmax + 1):
            dim = cochain_dim(table, coefficients, k)
            _expect(out, f"table.k{k}.dim", dim, problems)
            try:
                rank = int(out[f"table.k{k}.rank"])
            except (KeyError, ValueError):
                problems.append(f"table.k{k}.rank missing")
                continue
            if ranks is not None:
                _expect(out, f"table.k{k}.rank", ranks[k - 1], problems)
            _expect(out, f"table.k{k}.h", dim - rank - prev_rank, problems)
            prev_rank = rank
        if f"table.k{kmax + 1}.dim" in out:
            problems.append(f"rows beyond kmax={kmax}")
        return problems
    return checker


def check_check(table, valid: bool):
    def checker(text: str) -> list:
        out = parse_structured(text)
        problems = []
        _expect(out, "status", "pass" if valid else "fail", problems)
        _expect(out, "checked", checked_count(table), problems)
        _expect(out, "skipped", 0, problems)
        if valid:
            _expect(out, "violations", 0, problems)
        elif out.get("violations", "0") == "0":
            problems.append("no violation reported on the perturbed table")
        return problems
    return checker


def check_bracket(valid: bool):
    def checker(text: str) -> list:
        out = parse_structured(text)
        problems = []
        _expect(out, "status", "zero" if valid else "nonzero", problems)
        if valid:
            _expect(out, "entries", 0, problems)
        elif out.get("entries", "0") == "0":
            problems.append("no nonzero [m,m] entry on the perturbed table")
        return problems
    return checker


def check_verify(name: str):
    def checker(text: str) -> list:
        out = parse_structured(text)
        problems = []
        _expect(out, "name", name, problems)
        _expect(out, "status", "pass", problems)
        _expect(out, "violations", 0, problems)
        return problems
    return checker


# ---------------------------------------------------------------------------
# the independent route for the pinned ranks
# ---------------------------------------------------------------------------

def exact_rank(columns) -> int:
    """Rank of a matrix given as sparse columns {row: Fraction}."""
    pivots: dict = {}
    for col in columns:
        v = dict(col)
        while v:
            r = min(v)
            if r not in pivots:
                pivots[r] = v
                break
            p = pivots[r]
            f = v[r] / p[r]
            for i, c in p.items():
                x = v.get(i, 0) - f * c
                if x:
                    v[i] = x
                else:
                    v.pop(i, None)
    return len(pivots)


def bracket_route_ranks(path, coefficients: str, kmax: int) -> tuple:
    """Ranks of delta^1 .. delta^kmax from `delta_via_bracket` columns."""
    from antalg import antialgebra, cli
    from antalg.cohomology import CochainBasis, delta_via_bracket

    alg = cli.load_structure(str(path))
    mod = antialgebra.trivial_module(alg)
    if coefficients != "trivial":
        mod = antialgebra.adjoint_module(alg)
    if coefficients == "dual-adjoint":
        mod = antialgebra.dual_module(mod)
    ranks = []
    for k in range(1, kmax + 1):
        source = CochainBasis(alg, mod, k)
        target = CochainBasis(alg, mod, k + 1)
        columns = []
        for key in source.keys:
            image = target.coeff_vector(delta_via_bracket(source.unit(key)))
            columns.append({i: c for i, c in enumerate(image) if c})
        ranks.append(exact_rank(columns))
    return tuple(ranks)


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import fixtures

    with tempfile.TemporaryDirectory() as tmp:
        paths = fixtures.write_fixtures(Path(tmp), seed=0)
        status = 0
        for (stem, coefficients), pinned in RANKS.items():
            got = bracket_route_ranks(paths[stem][0], coefficients, len(pinned))
            print(stem, coefficients, got, "ok" if got == pinned else "DIFFERS")
            status |= got != pinned
    sys.exit(status)
