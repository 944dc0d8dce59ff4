"""Command-line front end.

Four commands: ``check`` (identity checks on a product table), ``cohomology``
(dimension/rank/H table over a chosen coefficient module), ``verify`` (named
verification suites over the windowed families), ``bracket`` (the square of
the structure element under the alternated bracket, block by block).

Exit status: 0 all checks pass, 1 a mathematical check failed, 2 bad input
(parse errors, unknown names, invalid flag combinations).

The ``structured`` output format is line-oriented ``key=value`` text with a
leading ``schema=1`` line; identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from importlib import resources

from .core import ParseError, format_scalar, parse_algebra_file
from .antialgebra import (
    AntialgebraStructure,
    ModuleStructure,
    _TablePass,
    adjoint_module,
    check_axioms,
    check_axioms_v2,
    dual_module,
    semidirect,
    trivial_module,
    zero_square_check,
)
from .cohomology import cohomology_dims
from . import zoo

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

_BUNDLED = ("k3",)
_WINDOWED = ("ak1", "m1")

_VERIFY = {
    "gamma": (zoo.verify_cocycle_gamma, 6),
    "eta": (zoo.verify_cocycle_eta, 4),
    "gf": (zoo.verify_super_cocycle_gf, 4),
    "dual-gf": (zoo.verify_dual_gf, 4),
    "gv": (zoo.verify_gv, 5),
    "ak1-axioms": (zoo.verify_ak1_axioms, 4),
    "m1-axioms": (zoo.verify_m1_axioms, 4),
}


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _fmt(obj) -> str:
    """Deterministic plain rendering of labels, instances, and scalars."""
    if isinstance(obj, Fraction):
        return format_scalar(obj)
    if isinstance(obj, tuple):
        return "(" + ",".join(_fmt(x) for x in obj) + ")"
    if isinstance(obj, (list, set, frozenset)):
        return "(" + ",".join(sorted(_fmt(x) for x in obj)) + ")"
    return str(obj)


def _fmt_value(val) -> str:
    """A scalar, or a sparse vector/dict as `c1*l1 + c2*l2` with labels
    sorted."""
    if not hasattr(val, "items"):
        return format_scalar(val)
    parts = [f"{format_scalar(c)}*{_fmt(l)}"
             for l, c in sorted(val.items(), key=lambda lc: str(lc[0])) if c]
    return " + ".join(parts) if parts else "0"


def emit_report(rep, fmt: str, out, header: dict) -> None:
    if fmt == "structured":
        print("schema=1", file=out)
        for k, v in header.items():
            print(f"{k}={v}", file=out)
        print(f"report={rep.title}", file=out)
        print(f"status={'pass' if rep.ok else 'fail'}", file=out)
        print(f"checked={rep.checked}", file=out)
        print(f"skipped={rep.skipped}", file=out)
        print(f"violations={len(rep.violations)}", file=out)
        for key in sorted(rep.extras, key=str):
            print(f"extra.{key}={rep.extras[key]}", file=out)
        for i, v in enumerate(rep.violations, 1):
            print(f"violation.{i}.kind={v.kind}", file=out)
            print(f"violation.{i}.instance={_fmt(v.instance)}", file=out)
            print(f"violation.{i}.residual={_fmt_value(v.residual)}", file=out)
    else:
        for k, v in header.items():
            print(f"{k}: {v}", file=out)
        print(rep.text(), file=out)


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def load_structure(name_or_path: str) -> AntialgebraStructure:
    """A finite product table: a bundled name or a path to an .alg file."""
    if name_or_path in _BUNDLED:
        path = resources.files("antalg").joinpath(f"data/{name_or_path}.alg")
        with resources.as_file(path) as p:
            doc = parse_algebra_file(p)
    else:
        doc = parse_algebra_file(name_or_path)
    try:
        return AntialgebraStructure.from_file_doc(doc)
    except ValueError as ex:
        raise InputError(str(ex)) from None


def load_coefficients(alg: AntialgebraStructure, selector: str) -> ModuleStructure:
    """The coefficient module named by ``selector``.  A dual-adjoint or file
    module is bad input unless its semidirect sum passes `check_axioms`."""
    if selector == "trivial":
        return trivial_module(alg)
    if selector == "adjoint":
        return adjoint_module(alg)
    if selector == "dual-adjoint":
        mod = dual_module(adjoint_module(alg))
        ext = semidirect(mod)
    else:
        doc = parse_algebra_file(selector)
        if doc.module_space is None:
            raise InputError(f"{selector} has no module section")
        try:
            mod = ModuleStructure(alg, doc.module_space, doc.action or {},
                                  name=doc.name or selector)
            ext = semidirect(mod)
        except (KeyError, ValueError) as ex:  # unknown or shared labels, parity
            raise InputError(ex.args[0]) from None
    rep = check_axioms(ext.space, ext.products, title="module")
    if not rep.ok:
        raise InputError(
            f"coefficients in {selector} violate the module identities "
            f"({len(rep.violations)} instances; first: "
            f"{rep.violations[0].kind} at {_fmt(rep.violations[0].instance)})")
    return mod


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _suite_window(suite: str, window) -> tuple:
    """The suite's function and the window radius to run it at."""
    fn, default_n = _VERIFY[suite]
    n = default_n if window is None else window
    least, greatest = zoo._WINDOW_RADII[suite]
    if n < least:
        raise InputError(f"--window must be >= {least} for {suite}, got {n}")
    if n > greatest:
        raise InputError(f"--window must be <= {greatest} for {suite}, "
                         f"got {n}")
    return fn, n


def cmd_check(args, out) -> int:
    if args.input in _WINDOWED:
        fn, n = _suite_window(f"{args.input}-axioms", args.window)
        rep = fn(n)
        emit_report(rep, args.format, out,
                    {"command": "check", "input": args.input, "window": n})
        return EXIT_OK if rep.ok else EXIT_MATH
    if args.window is not None:
        raise InputError(f"--window applies only to the windowed families "
                         f"{' and '.join(_WINDOWED)}, not to {args.input}")
    alg = load_structure(args.input)
    sp, table = alg.space, alg.products
    shared = _TablePass(sp, table)  # one residual pass for all three checks
    rep = check_axioms(sp, table, title=f"axioms[{alg.name}]", _pass=shared)
    rep.merge(check_axioms_v2(sp, table, _pass=shared),
              zero_square_check(alg, _pass=shared)[0])
    emit_report(rep, args.format, out, {"command": "check", "input": args.input})
    return EXIT_OK if rep.ok else EXIT_MATH


def cmd_cohomology(args, out) -> int:
    if args.input in _WINDOWED:
        raise InputError(
            f"cohomology tables need a finite table; "
            f"use `verify {args.input}-axioms` for the windowed family")
    alg = load_structure(args.input)
    base = check_axioms(alg.space, alg.products)
    if not base.ok:
        raise InputError(f"{args.input} is not a valid structure "
                         f"({len(base.violations)} identity violations); "
                         "run `check` for the list")
    mod = load_coefficients(alg, args.coefficients)
    table = cohomology_dims(alg, mod, args.kmax)
    if args.format == "structured":
        print("schema=1", file=out)
        print("command=cohomology", file=out)
        print(f"input={args.input}", file=out)
        print(f"coefficients={args.coefficients}", file=out)
        print(f"kmax={args.kmax}", file=out)
        for k, dim, rank, h in table:
            print(f"table.k{k}.dim={dim}", file=out)
            print(f"table.k{k}.rank={rank}", file=out)
            print(f"table.k{k}.h={h}", file=out)
    else:
        print(f"cohomology of {alg.name} with {args.coefficients} "
              f"coefficients", file=out)
        print(f"{'k':>3} {'dim C^k':>8} {'rank d^k':>9} {'dim H^k':>8}",
              file=out)
        for k, dim, rank, h in table:
            print(f"{k:>3} {dim:>8} {rank:>9} {h:>8}", file=out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    if args.name not in _VERIFY:
        raise InputError(f"unknown verification {args.name!r}; "
                         f"known: {', '.join(sorted(_VERIFY))}")
    fn, n = _suite_window(args.name, args.window)
    rep = fn(n)
    emit_report(rep, args.format, out,
                {"command": "verify", "name": args.name, "window": n})
    return EXIT_OK if rep.ok else EXIT_MATH


def cmd_bracket(args, out) -> int:
    if args.input in _WINDOWED:
        raise InputError("the bracket table needs a finite product table")
    alg = load_structure(args.input)
    rep, square = zero_square_check(alg)
    entries = []
    for (p, q), mm in square.items():
        by_args: dict = {}
        for (xs, ys, lbl), c in mm.entries():
            by_args.setdefault((xs, ys), {})[lbl] = c
        for key in sorted(by_args, key=str):
            entries.append(((p, q), key, by_args[key]))
    if args.format == "structured":
        print("schema=1", file=out)
        print("command=bracket", file=out)
        print(f"input={args.input}", file=out)
        print(f"status={'zero' if rep.ok else 'nonzero'}", file=out)
        print(f"entries={len(entries)}", file=out)
        for i, (shape, key, val) in enumerate(entries, 1):
            print(f"entry.{i}.shape={_fmt(shape)}", file=out)
            print(f"entry.{i}.args={_fmt(key)}", file=out)
            print(f"entry.{i}.value={_fmt_value(val)}", file=out)
    else:
        print(f"[m,m] for {alg.name}: "
              f"{'zero' if rep.ok else f'{len(entries)} nonzero entries'}",
              file=out)
        for shape, key, val in entries:
            print(f"  {_fmt(shape)} {_fmt(key)} -> {_fmt_value(val)}",
                  file=out)
    return EXIT_OK if rep.ok else EXIT_MATH


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    was."""
    ap = argparse.ArgumentParser(
        prog="antalg",
        description="exact checks and cohomology for graded-commutative "
                    "structures with an odd skew part")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True,
                           help="bundled name (k3, ak1, m1) or path to an "
                                ".alg file")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")

    p = sub.add_parser("check", help="identity checks on a product table")
    common(p)
    p.add_argument("--window", type=int, default=None,
                   help="window radius for the infinite families")

    p = sub.add_parser("cohomology", help="dim/rank/H table")
    common(p)
    p.add_argument("--coefficients", default="trivial",
                   help="trivial | adjoint | dual-adjoint | path to a file "
                        "with a module section")
    p.add_argument("--kmax", type=int, default=3)

    p = sub.add_parser("verify", help="named verification suites")
    p.add_argument("name", help=" | ".join(sorted(_VERIFY)))
    p.add_argument("--window", type=int, default=None)
    common(p, with_input=False)

    p = sub.add_parser("bracket", help="the squared structure element, "
                                       "block by block")
    common(p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "check":
            return cmd_check(args, out)
        if args.command == "cohomology":
            if args.kmax < 1:
                raise InputError("kmax must be >= 1")
            return cmd_cohomology(args, out)
        if args.command == "verify":
            return cmd_verify(args, out)
        if args.command == "bracket":
            return cmd_bracket(args, out)
        raise InputError(f"unknown command {args.command!r}")
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except InputError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, UnicodeDecodeError) as ex:  # unreadable, or not UTF-8
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
