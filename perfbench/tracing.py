"""Spans around calls into each `antalg` module, recorded from outside.

The tracer replaces a function by a timing wrapper at the name its caller
looks it up under (for example `antalg.zoo.delta_instance`, which the
window suites call, or the `_VERIFY` table the CLI dispatches through), so
no program source changes.  Spans stay in memory with parent links and
are written out when the benchmark ends.  A layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

from workloads import KMAX, SUITES

TIME_METRICS = (
    ["cli.self_s", "core.parse_s",
     "antialgebra.check_axioms_s", "antialgebra.check_axioms_v2_s",
     "antialgebra.zero_square_s", "antialgebra.modules_s",
     "brackets.al_bracket_s",
     "cohomology.assemble_s"]
    + [f"cohomology.assemble_s.k{k}" for k in range(1, KMAX + 1)]
    + ["cohomology.verify_s", "cohomology.dims_s",
       "cohomology.delta_instance_s",
       "linalg.mat_mul_s", "linalg.rank_s", "linalg.solve_s"]
    + [f"zoo.{s}_s" for s in SUITES]
    + ["trace.overhead_s"])

COUNT_METRICS = (
    [f"cohomology.{what}.k{k}" for what in ("dim", "nnz", "rank")
     for k in range(1, KMAX + 1)]
    + ["linalg.solve_cells", "antialgebra.checked", "zoo.checked",
       "zoo.skipped", "core.parse_lines"])


def _metric_of(span: str) -> str:
    if span == "cli.main":
        return "cli.self_s"
    if span.startswith("cohomology.assemble.k"):  # delta evaluation in degree k
        return "cohomology.assemble_s." + span.rpartition(".")[2]
    return span + "_s"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, command, pass]
        self.counts = Counter()
        self.command = None
        self.pass_index = 0
        self._stack = []
        self._deferred = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, note=None):
        """``fn`` inside a span.  ``name`` is a string or a function of the
        call's arguments.  ``note(tracer, args, result)`` runs right after
        the span closes (``result`` is None if the call raised); it must be
        cheap, and hands anything slower to `defer`."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(spans)
            spans.append([label, perf_counter(), 0.0,
                          stack[-1] if stack else -1,
                          self.command, self.pass_index])
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
                if note is not None:
                    note(self, args, result)
        return traced

    def defer(self, fn) -> None:
        """Run ``fn(counts)`` after the current command, outside every span."""
        self._deferred.append(fn)

    def end_command(self) -> None:
        for fn in self._deferred:
            fn(self.counts)
        self._deferred.clear()

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, key, name, note=None):
        if isinstance(owner, dict):
            original = owner[key]
            self._undo.append((owner.__setitem__, key, original))
            fn, default = original  # the CLI's (suite, default window) pairs
            owner[key] = (self.wrap(name, fn, note), default)
        else:
            original = getattr(owner, key)
            self._undo.append((lambda k, v, o=owner: setattr(o, k, v),
                               key, original))
            setattr(owner, key, self.wrap(name, original, note))

    def install(self) -> None:
        """Wrap the program's layer entry points at their call sites."""
        mod = {n: importlib.import_module(f"antalg.{n}")
               for n in ("cli", "cohomology", "linalg", "zoo", "brackets")}
        cli = mod["cli"]
        self._patch(cli, "parse_algebra_file", "core.parse", _note_parse)
        for fn in ("check_axioms", "check_axioms_v2"):
            self._patch(cli, fn, f"antialgebra.{fn}", _note_checked)
        self._patch(cli, "zero_square_check", "antialgebra.zero_square",
                    _note_square)
        for fn in ("trivial_module", "adjoint_module", "dual_module"):
            self._patch(cli, fn, "antialgebra.modules")
        self._patch(cli, "cohomology_dims", "cohomology.dims", _note_ranks)
        for suite in SUITES:
            self._patch(cli._VERIFY, suite, f"zoo.{suite}", _note_suite)
        self._patch(mod["brackets"], "al_bracket_blocks", "brackets.al_bracket")
        coh = mod["cohomology"]
        self._patch(coh, "assemble_complex", "cohomology.assemble")
        self._patch(coh, "apply_delta_component",
                    lambda args: f"cohomology.assemble.k{args[0].degree}")
        self._patch(coh, "verify_complex", "cohomology.verify", _note_complex)
        self._patch(mod["zoo"], "delta_instance", "cohomology.delta_instance")
        linalg = mod["linalg"]
        self._patch(linalg, "mat_mul", "linalg.mat_mul")
        self._patch(linalg, "rank", "linalg.rank")
        self._patch(linalg, "solve", "linalg.solve", _note_solve)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    # -- reading -------------------------------------------------------------

    def self_times(self):
        """{(pass, command): {metric: seconds}} from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(Counter)
        for i, (name, start, end, _, command, pass_index) in enumerate(self.spans):
            self_s = end - start - child[i]
            times = out[(pass_index, command)]
            times[_metric_of(name)] += self_s
            if name.startswith("cohomology.assemble.k"):
                times["cohomology.assemble_s"] += self_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, command, pass_index) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "command": command,
                                     "pass": pass_index}) + "\n")


# -- counts, taken where the work happens -----------------------------------

def _note_parse(tracer, args, result):
    path = args[0]

    def count(counts):
        with open(path, encoding="utf-8") as fh:
            counts["core.parse_lines"] += sum(1 for _ in fh)
    tracer.defer(count)


def _note_checked(tracer, args, result):
    # read now: the CLI merges later reports into this one
    if result is not None:
        tracer.counts["antialgebra.checked"] += result.checked


def _note_square(tracer, args, result):
    if result is not None:
        tracer.counts["antialgebra.checked"] += result[0].checked


def _note_suite(tracer, args, result):
    if result is not None:
        tracer.counts["zoo.checked"] += result.checked
        tracer.counts["zoo.skipped"] += result.skipped


def _note_ranks(tracer, args, result):
    for k, _, rank, _ in result or ():
        tracer.counts[f"cohomology.rank.k{k}"] += rank


def _note_complex(tracer, args, result):
    mats = args[0]

    def count(counts):
        for mat in mats:
            counts[f"cohomology.dim.k{mat.k}"] += mat.source.dim
            counts[f"cohomology.nnz.k{mat.k}"] += sum(
                1 for row in mat.full for c in row if c)
    tracer.defer(count)


def _note_solve(tracer, args, result):
    mat = args[0]
    tracer.counts["linalg.solve_cells"] += len(mat) * len(mat[0]) if mat else 0
