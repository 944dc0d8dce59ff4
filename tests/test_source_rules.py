"""Rules that the eight modules of the library keep, read from their syntax
trees:

- no `assert` statement: ``python -O`` strips them, so a check must raise
  explicitly;
- no import outside the standard library and `antalg` itself: the library
  has no runtime dependencies;
- the coboundary formulas name no exact scalar: every scalar comes from
  their `DeltaContext`, so the one definition of delta serves both the
  exact context and the integer one of the matrix assembly; L_k is
  computed in `DeltaContext` alone, whose one keyword is the tables'
  ``denominator`` (no ``degree``: k is read off each block), and the
  matrix scatter `_UnitCochains` names no lcm;
- one context serves every degree: `DeltaContext` defines no ``at``, and
  no call in `src/` or `tests/` passes ``degree=`` to it, to a subclass
  of it or to `zoo._m1_ctx`;
- the context alone decides which scalar weighs which product, for pull
  and push alike: `_UnitCochains` tabulates the context's weighted
  products (`m_alg`, `m_x_val`, `m_val_y`) and reads none of ``half``,
  ``one``, ``mul`` or ``act`` of its context;
- the Lie-side suites take their coboundaries from the one
  Chevalley-Eilenberg engine, `brackets.lie_coboundary`: each calls it and
  none calls a bracket itself, and no function is named after the
  finite-only operator it replaced;
- the window structure constants are written once, as integers times 4
  on int keys (`_conf_mul4`, `_dual_act4`, `_k1_bracket4`): no
  `Fraction` form on those keys is left beside them, and each public
  product (`conf_mul`, `dual_act`, `k1_bracket`) is one call of
  `core.divided` on its integer form;
- `zoo` holds no unbounded cache (`functools.cache`, or `lru_cache`
  without a finite ``maxsize``): its structure constants are two-branch
  formulas, cheaper to compute than to look up in a table that only
  grows;
- a window label is keyed by its doubled index alone, an `int` whose last
  bit is its parity: the structure constants on those keys (`_conf_mul4`,
  `_dual_act4`, `_k1_bracket4`, `_coadjoint4`) name no family, so hold no
  `str` constant beside their docstrings, and a window's keys (`labels2`)
  are plain ints;
- m is read off the nonzero products of its table:
  `AntialgebraStructure.m_blocks` calls neither `mul` nor
  `itertools.product`, so enumerates no label tuples;
- the parser makes one `Fraction` per term: `core._parse_expr` calls
  `Fraction` exactly once;
- the graded mirror rule a.b = (-1)^{|a||b|} b.a is written once, in the
  table's completion: the module constructors (`semidirect`,
  `adjoint_module`, `dual_module`) read the sparse tables and call none of
  `labels`, `act`, `mul` or `product`, so enumerate no label pairs;
- the cochain key order is written once, in `cohomology._cochain_keys`:
  `CochainBasis.__init__` and `zoo._m1_slice` call it, `_m1_slice` gives
  its keys to `CochainBasis.from_keys` and builds no `SimpleNamespace`,
  and no `_target_shapes` is left beside it;
- the identity checkers read their residuals from the one scatter over the
  nonzero products, `antialgebra._identity_residuals`, which sums each
  law on flat int keys and returns the nonzero residuals alone, in
  product order: no per-instance helper (`_left`, `_right`) is left
  beside it, `check_axioms_v2` and `zoo._conf_axiom_report` enumerate no
  instances themselves, and `_identity_reports` neither filters nor sorts
  what the scatter returns (no `any`, no `sorted`);
- the eta suite's coboundary reports run on ints: `zoo._delta_report`
  names no exact scalar and divides nowhere but in its one call of
  `core.divided`;
- the eta suite's coboundary reports are pulled through the instance
  formulas, so the witness check shares no code with the matrix scatter:
  `zoo._delta_report` reaches delta only through `delta_instance`, and
  calls none of `_delta_between`, `_UnitCochains`,
  `apply_delta_component` or `_m1_delta1`;
- the eta solve holds no coboundary of its own: `zoo.eta_coboundary_solve`
  reaches delta only through `zoo._m1_delta1`, the cached call of the
  integer core of the matrix assembly, `cohomology._delta_between` (no
  `delta_instance`), and it, that call and the slice
  enumerator `zoo._m1_slice` name no exact scalar and divide nowhere: the
  solve runs on delta^1's integer rows, ``ints``, not on ``full``;
- gamma's nontriviality is decided on its weight-0 slice, whose one
  unknown does not depend on the window: `zoo._gamma_nontrivial` reads no
  window radius `N`;
- delta^k is held once on integers: its assembly (`_UnitCochains`,
  `_delta_between`, `_delta_matrix`, `_cleared_context`) and the delta^2
  check (`verify_complex`) name neither `Fraction` nor `divided`, and the
  module's one call of `divided` is in `DifferentialMatrix`, the one
  division of delta^k into `Fraction`s, ``full``, which no code of the
  library reads;
- delta^2 = 0 is checked degree by degree: `assemble_complex` calls
  `verify_complex` only inside the loop that builds delta^k
  (`_delta_matrix`), so a failing complex stops at its first failing pair;
- delta^k is scattered from the source keys, not pulled through the
  instance formulas: the core `_delta_between` reaches delta through
  `apply_delta_component` on its `_UnitCochains`, one call per component
  (the benchmark's per-degree assembly spans wrap that name), and takes
  its `DeltaContext` whole (no ``basis``, ``parity``, ``mul`` or ``act``
  parameter); neither calls `delta_instance` or `apply_delta`; the
  finite-table `_delta_matrix` takes its context from `_cleared_context`,
  which builds it, and reaches delta only through the core; and no
  generic cochain (`_GenericCochain`) is left for the formulas to sweep;
- one delta per job: every whole-cochain coboundary comes from the matrix
  scatter, and the pull formulas only evaluate single instances.
  `apply_delta`, `apply_delta_component` and the helper they call reach
  delta through `_delta_matrix` and call no `delta_instance`;
- exact rank runs on integer rows: `linalg._eliminate` and the
  `_primitive` rows it starts from name no `Fraction`, and
  `cohomology_dims` ranks delta^k's integer rows, ``.ints``, so no
  `Fraction` is made on the way to a cohomology table;
- every window computation is decided exactly: the coboundary layer
  (`DeltaContext`, `_through`, `delta_instance`) and the identity suites
  (`antialgebra._identity_reports`, `zoo._conf_axiom_report`) compare
  nothing with None and name no "unknown", and `zoo.WindowedAlgebra`
  defines no product (`mul`, `bracket`) of its own;
- the window suites build no `Fraction` they do not report: the axiom
  suites hand `_conf_mul4`'s integer table to `_identity_reports` as it
  is (no `common_denominator`, no `as_integers` in
  `zoo._conf_axiom_report`); `c_gf` and `c_gv` return the one shared
  `_ZERO` and call no `Fraction` on their zero path; and `zoo._dbl` reads
  a label's index with one `as_integer_ratio()` call, not its
  `numerator` and `denominator`;
- the benchmark's tracer finds what it wraps: each `_patch(owner, name,
  ..)` in `Tracer.install` of `perfbench/tracing.py`, read from its
  syntax tree (the benchmark is not imported), names an attribute that
  its `antalg` module still has, or a key of the table it patches.
"""

import ast
import importlib
import sys
from pathlib import Path

from antalg.zoo import WindowedAlgebra

SRC = Path(__file__).resolve().parents[1] / "src" / "antalg"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.rglob("*.py"))}


def _imported_roots(tree):
    """(line, top-level module) of every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_the_rules_see_every_module():
    assert {"__init__.py", "antialgebra.py", "brackets.py", "cli.py",
            "cohomology.py", "core.py", "linalg.py", "zoo.py"} <= set(TREES)


def test_no_module_checks_with_assert():
    found = [(name, node.lineno) for name, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_outside_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"antalg"}
    found = [(name, line, root) for name, tree in TREES.items()
             for line, root in _imported_roots(tree) if root not in allowed]
    assert found == []


def test_the_coboundary_formulas_take_every_scalar_from_their_context():
    functions = {node.name: node
                 for node in ast.walk(TREES["cohomology.py"])
                 if isinstance(node, ast.FunctionDef)}
    exact = {"Fraction", "HALF", "ONE"}
    found = [(name, node.lineno)
             for name in ("delta10_terms", "delta01_terms", "delta_12_terms",
                          "delta_instance")
             for node in ast.walk(functions[name])
             if getattr(node, "id", getattr(node, "attr", None)) in exact]
    assert found == []
    top = _top("cohomology.py")
    assert "lcm" not in set(_read_names(top["_UnitCochains"]))
    # L_k = lcm(1, .., k+1) is computed once, in the context
    ranged = [(name, fn) for name in TREES for fn, node in _top(name).items()
              for sub in ast.walk(node) if isinstance(sub, ast.Call)
              and getattr(sub.func, "attr", getattr(sub.func, "id", None))
              == "lcm" and "range" in set(_called_names(sub))]
    assert ranged == [("cohomology.py", "DeltaContext")]
    init = next(node for node in top["DeltaContext"].body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    assert [a.arg for a in init.args.args] == [
        "self", "alg", "mod", "mul", "act"]
    assert [a.arg for a in init.args.kwonlyargs] == ["denominator"]


def test_one_context_serves_every_degree():
    methods = {sub.name for sub in _top("cohomology.py")["DeltaContext"].body
               if isinstance(sub, ast.FunctionDef)}
    assert "at" not in methods and {"unit", "scale", "norm"} <= methods
    trees = {**TREES, **{path.name: ast.parse(path.read_text(encoding="utf-8"))
                         for path in sorted(TESTS.glob("*.py"))}}
    contexts = {"DeltaContext", "_m1_ctx"} | {
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and "DeltaContext" in {getattr(b, "id", getattr(b, "attr", None))
                               for b in node.bases}}
    found = [(name, sub.lineno) for name, tree in trees.items()
             for sub in ast.walk(tree) if isinstance(sub, ast.Call)
             and getattr(sub.func, "id", getattr(sub.func, "attr", None))
             in contexts and "degree" in {k.arg for k in sub.keywords}]
    assert found == []
    assert len(contexts) >= 3  # the tests' reweighted context counts too


def _called_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield getattr(sub.func, "id", getattr(sub.func, "attr", None))


def test_the_lie_suites_take_their_coboundary_from_the_one_engine():
    functions = {node.name: node for node in ast.walk(TREES["zoo.py"])
                 if isinstance(node, ast.FunctionDef)}
    brackets = {"_k1_bracket4", "k1_bracket", "w1_bracket", "bracket"}
    for name in ("verify_super_cocycle_gf", "verify_dual_gf", "verify_gv"):
        called = set(_called_names(functions[name]))
        assert "lie_coboundary" in called, name
        assert not called & brackets, name
    found = [(name, node.lineno) for name, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name == "chevalley_eilenberg_differential"]
    assert found == []


def test_the_window_structure_constants_are_written_once_on_ints():
    named = {getattr(node, attr) for node in ast.walk(TREES["zoo.py"])
             for attr in ("name", "id", "attr") if hasattr(node, attr)}
    assert not named & {"_conf_mul2", "_dual_act2", "_k1_bracket2"}
    top = _top("zoo.py")
    for name in ("conf_mul", "dual_act", "k1_bracket"):
        assert list(_called_names(top[name])).count("divided") == 1, name
        assert f"_{name}4" in set(_called_names(top[name])), name


def test_window_labels_are_keyed_by_their_doubled_index_alone():
    top = _top("zoo.py")
    names = ("_conf_mul4", "_dual_act4", "_k1_bracket4", "_coadjoint4")
    assert all(ast.get_docstring(top[name]) for name in names)
    found = [(name, sub.lineno) for name in names
             for stmt in top[name].body[1:]  # after the docstring
             for sub in ast.walk(stmt)
             if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]
    assert found == []
    assert WindowedAlgebra("ak1", 2).labels2() == [
        -4, -2, 0, 2, 4, -3, -1, 1, 3]


def _functions(name):
    return {node.name: node for node in ast.walk(TREES[name])
            if isinstance(node, ast.FunctionDef)}


def _top(name):
    """The module's top-level functions and classes by name."""
    return {node.name: node for node in TREES[name].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _read_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            yield getattr(sub, "id", getattr(sub, "attr", None))


def test_the_identity_checkers_read_one_scatter():
    found = [(name, fn) for name in ("antialgebra.py", "zoo.py")
             for fn in _functions(name) if fn in ("_left", "_right")]
    assert found == []
    engine = _functions("antialgebra.py")
    assert "_identity_residuals" in set(_called_names(
        engine["_identity_reports"]))
    v2 = engine["check_axioms_v2"]
    conf = _functions("zoo.py")["_conf_axiom_report"]
    assert "identities" in set(_read_names(v2))
    assert "_identity_reports" in set(_called_names(conf))
    for node in (v2, conf):  # no instance loop, no record per instance
        assert not {"product", "record"} & set(_called_names(node))


def test_the_identity_reports_read_only_nonzero_residuals():
    reports = _functions("antialgebra.py")["_identity_reports"]
    assert not {"any", "sorted"} & set(_called_names(reports))


def test_m_is_read_off_the_table():
    structure = _top("antialgebra.py")["AntialgebraStructure"]
    m = next(node for node in structure.body
             if isinstance(node, ast.FunctionDef) and node.name == "m_blocks")
    assert not {"mul", "product"} & set(_called_names(m))


def test_the_parser_makes_one_fraction_per_term():
    called = list(_called_names(_top("core.py")["_parse_expr"]))
    assert called.count("Fraction") == 1


def test_the_module_constructors_read_the_sparse_tables():
    top = _top("antialgebra.py")
    for name in ("semidirect", "adjoint_module", "dual_module"):
        called = set(_called_names(top[name]))
        assert not {"labels", "act", "mul", "product"} & called, name


def test_the_cochain_key_order_is_written_once():
    basis = _top("cohomology.py")["CochainBasis"]
    init = next(node for node in basis.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    assert "_cochain_keys" in set(_called_names(init))
    called = set(_called_names(_top("zoo.py")["_m1_slice"]))
    assert {"_cochain_keys", "from_keys"} <= called
    assert "SimpleNamespace" not in called
    found = [(name, fn) for name in TREES for fn in _functions(name)
             if fn == "_target_shapes"]
    assert found == []


def test_the_eta_builds_divide_once_through_divided():
    functions = _functions("zoo.py")
    solve = functions["eta_coboundary_solve"]
    called = set(_called_names(solve))
    assert "_m1_delta1" in called
    assert "_delta_between" in set(_called_names(functions["_m1_delta1"]))
    for name in ("eta_coboundary_solve", "_m1_delta1"):
        assert not {"delta_instance", "apply_delta"} & (
            set(_called_names(functions[name]))), name
    assert "ints" in set(_read_names(solve))
    assert "full" not in set(_read_names(solve))
    for name, divided in (("eta_coboundary_solve", 0), ("_m1_delta1", 0),
                          ("_m1_slice", 0), ("_delta_report", 1)):
        node = functions[name]
        assert not {"Fraction", "HALF", "ONE"} & set(_read_names(node)), name
        assert list(_called_names(node)).count("divided") == divided, name
        divisions = [sub.lineno for sub in ast.walk(node)
                     if isinstance(sub, (ast.BinOp, ast.AugAssign))
                     and isinstance(sub.op, (ast.Div, ast.FloorDiv))]
        assert divisions == [], name


def test_the_eta_reports_pull_delta_through_the_instance_formulas():
    called = set(_called_names(_top("zoo.py")["_delta_report"]))
    assert "delta_instance" in called
    assert not {"_delta_between", "_UnitCochains", "apply_delta_component",
                "_m1_delta1"} & called


def test_gamma_nontriviality_reads_no_window_radius():
    node = _top("zoo.py")["_gamma_nontrivial"]
    assert "N" not in set(_read_names(node))


def test_delta_matrices_stay_on_integers_until_their_one_division():
    top = _top("cohomology.py")
    for name in ("_UnitCochains", "_delta_between", "_delta_matrix",
                 "_cleared_context", "verify_complex"):
        assert not {"Fraction", "divided"} & set(_read_names(top[name])), name
    calls = [name for name, node in top.items()
             for called in _called_names(node) if called == "divided"]
    assert calls == ["DifferentialMatrix"]
    readers = [(name, fn) for name in TREES for fn, node in _top(name).items()
               for sub in ast.walk(node)
               if isinstance(sub, ast.Attribute) and sub.attr == "full"]
    assert readers == []


def test_delta_matrices_reach_delta_through_apply_delta_component():
    top = _top("cohomology.py")
    pull = {"delta_instance", "apply_delta"}
    called = list(_called_names(top["_delta_between"]))
    assert called.count("apply_delta_component") == 1
    assert "_UnitCochains" in called
    assert [a.arg for a in top["_delta_between"].args.args] == [
        "ctx", "k", "source", "target"]
    for name in ("_delta_between", "_UnitCochains"):
        assert not pull & set(_called_names(top[name])), name
    wrapper = set(_called_names(top["_delta_matrix"]))
    assert {"_delta_between", "_cleared_context"} <= wrapper
    assert "DeltaContext" in set(_called_names(top["_cleared_context"]))
    for name in ("_delta_matrix", "_cleared_context"):
        assert not (pull | {"apply_delta_component"}) & set(
            _called_names(top[name])), name
    assert not any("_GenericCochain" in _top(name) for name in TREES)


def test_the_complex_is_checked_in_its_degree_loop():
    assemble = _top("cohomology.py")["assemble_complex"]
    loops = [node for node in ast.walk(assemble)
             if isinstance(node, ast.For)
             and "_delta_matrix" in set(_called_names(node))]
    assert len(loops) == 1
    called = list(_called_names(assemble))
    assert called.count("verify_complex") >= 1
    assert (list(_called_names(loops[0])).count("verify_complex")
            == called.count("verify_complex"))


def test_exact_rank_runs_on_integer_rows():
    kernel = _functions("linalg.py")
    for name in ("_eliminate", "_primitive"):
        assert "Fraction" not in set(_read_names(kernel[name])), name
    dims = _functions("cohomology.py")["cohomology_dims"]
    ranked = [sub.args[0] for sub in ast.walk(dims)
              if isinstance(sub, ast.Call)
              and getattr(sub.func, "attr", None) == "rank"]
    assert [getattr(arg, "attr", None) for arg in ranked] == ["ints"]


def test_window_computations_have_no_unknown_value():
    nodes = {f"{name}:{fn}": _top(name)[fn] for name, fn in (
        ("cohomology.py", "DeltaContext"), ("cohomology.py", "_through"),
        ("cohomology.py", "delta_instance"),
        ("antialgebra.py", "_identity_reports"),
        ("zoo.py", "_conf_axiom_report"))}
    for where, node in nodes.items():
        compared = [sub.lineno for sub in ast.walk(node)
                    if isinstance(sub, ast.Compare)
                    for side in (sub.left, *sub.comparators)
                    if isinstance(side, ast.Constant) and side.value is None]
        assert compared == [], where
        named = {getattr(sub, attr) for sub in ast.walk(node)
                 for attr in ("id", "attr", "arg") if hasattr(sub, attr)}
        assert not {n for n in named if n and "unknown" in n}, where
    window = _top("zoo.py")["WindowedAlgebra"]
    methods = {sub.name for sub in window.body
               if isinstance(sub, ast.FunctionDef)}
    assert not methods & {"mul", "bracket"}


def test_the_scatter_takes_its_weighted_products_from_the_context():
    scatter = _top("cohomology.py")["_UnitCochains"]
    read = {sub.attr for sub in ast.walk(scatter)
            if isinstance(sub, ast.Attribute)
            and getattr(sub.value, "id", None) == "ctx"}
    assert not read & {"half", "one", "mul", "act"}
    assert {"m_alg", "m_x_val", "m_val_y"} <= read


def test_zoo_holds_no_unbounded_cache():
    found = []
    for node in ast.walk(TREES["zoo.py"]):
        name = getattr(node, "id", getattr(node, "attr", None))
        if name == "cache":
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) == "lru_cache":
            sizes = [*node.args[:1],
                     *(k.value for k in node.keywords if k.arg == "maxsize")]
            if getattr(sizes[0] if sizes else None, "value", None) is None:
                found.append(node.lineno)
    assert found == []


def test_whole_cochain_deltas_come_from_the_scatter():
    top = _top("cohomology.py")
    route = {"apply_delta", "apply_delta_component"}
    route |= {called for name in route for called in _called_names(top[name])
              if called in top}
    called = {c for name in route for c in _called_names(top[name])}
    assert "delta_instance" not in called, sorted(route)
    assert "_delta_matrix" in called


def _string_tuples(tree):
    """{name: the strings} of the module's top-level tuples of strings."""
    return {node.targets[0].id: tuple(e.value for e in node.value.elts)
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Tuple)
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in node.value.elts)}


def _patched(node, strings, loops=None):
    """(owner, names) of every `_patch(owner, name, ..)` call under
    ``node``: a name is a string constant, or the variable of an enclosing
    loop over a tuple of strings (literal or named in ``strings``)."""
    loops = loops or {}
    if isinstance(node, ast.For):
        it = node.iter
        loops = {**loops, node.target.id: (
            strings[it.id] if isinstance(it, ast.Name)
            else tuple(e.value for e in it.elts))}
    if isinstance(node, ast.Call) and getattr(node.func, "attr",
                                              None) == "_patch":
        owner, name = node.args[:2]
        yield owner, (loops[name.id] if isinstance(name, ast.Name)
                      else (name.value,))
    for child in ast.iter_child_nodes(node):
        yield from _patched(child, strings, loops)


def test_the_benchmark_tracer_wraps_names_that_exist():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    strings = _string_tuples(tree)
    for node in tree.body:  # the tuples it imports from its own modules
        if isinstance(node, ast.ImportFrom) and (
                PERFBENCH / f"{node.module}.py").exists():
            strings.update(_string_tuples(ast.parse(
                (PERFBENCH / f"{node.module}.py").read_text(
                    encoding="utf-8"))))
    tracer = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    install = next(node for node in tracer.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")

    def module_of(node):  # mod["name"], the antalg module `name`
        return f"antalg.{node.slice.value}"

    bound = {node.targets[0].id: module_of(node.value)
             for node in ast.walk(install) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Subscript)}
    found = {}  # (owner, name): whether the owner has it
    for owner, names in _patched(install, strings):
        path = []
        while isinstance(owner, ast.Attribute):  # cli._VERIFY
            path.insert(0, owner.attr)
            owner = owner.value
        where = (bound[owner.id] if isinstance(owner, ast.Name)
                 else module_of(owner))
        target = importlib.import_module(where)
        for attr in path:
            target = getattr(target, attr)
        for name in names:
            found[".".join([where, *path]), name] = (
                name in target if isinstance(target, dict)
                else hasattr(target, name))
    assert [key for key, ok in found.items() if not ok] == []
    assert {("antalg.zoo", "delta_instance"), ("antalg.cli._VERIFY", "eta"),
            ("antalg.cli", "dual_module")} <= set(found)


def test_the_axiom_suites_read_the_integer_products_as_they_are():
    conf = _top("zoo.py")["_conf_axiom_report"]
    assert not {"common_denominator", "as_integers"} & set(_read_names(conf))


def test_the_zero_forms_build_no_fraction():
    top = _top("zoo.py")
    assert "Fraction" not in set(_called_names(top["c_gf"]))
    zero = [node for node in top["c_gv"].body if isinstance(node, ast.If)]
    assert zero and not {"Fraction"} & {
        name for node in zero for name in _called_names(node)}
    for name in ("c_gf", "c_gv"):
        assert "_ZERO" in set(_read_names(top[name])), name


def test_a_label_index_is_read_in_one_call():
    dbl = _top("zoo.py")["_dbl"]
    read = set(_read_names(dbl))
    assert not {"numerator", "denominator"} & read
    assert list(_called_names(dbl)).count("as_integer_ratio") == 1
