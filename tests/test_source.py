"""Checks on the package source itself."""

import ast
import inspect
from pathlib import Path

import cyclohecke
from cyclohecke import combin, decomp, seminormal, tableau

SRC = Path(cyclohecke.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise
    paths = sorted(SRC.glob("*.py"))
    assert "cli.py" in {path.name for path in paths}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {found}"


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _is_command(node) -> bool:
    return any(isinstance(dec, ast.Call)
               and isinstance(dec.func, ast.Attribute)
               and dec.func.attr in ("command", "group")
               for dec in node.decorator_list)


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _uses(tree) -> set:
    """(owner, name) for every name, attribute or string constant used in
    a module; owner is the top-level definition it sits in, or None."""
    out = set()
    for stmt in tree.body:
        if _is_all(stmt):
            continue
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                out.add((owner, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add((owner, node.value))
    return out


def test_public_names_are_used_by_the_package():
    # a public function or class must be reached from src/ or benchmarks/
    # through something other than its own body, __all__ or the package's
    # re-exports; click commands are reached through the CLI
    modules = [path for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"]
    assert (BENCHMARKS / "tracer.py").is_file()
    uses = set()
    for path in modules + sorted(BENCHMARKS.glob("*.py")):
        uses |= _uses(ast.parse(path.read_text(), str(path)))
    unused = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and not _is_command(node)
        and not any(name == node.name and owner != node.name
                    for owner, name in uses)
    ]
    assert not unused, f"public names used only by tests: {unused}"


def _module_ints(tree) -> dict:
    """Module-level names bound to an int literal."""
    return {target.id: stmt.value.value
            for stmt in tree.body if isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and type(stmt.value.value) is int
            for target in stmt.targets if isinstance(target, ast.Name)}


def _cache_decorators(tree):
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            func = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in ("lru_cache", "cache"):
                yield node, dec


MEMOS = {
    ("combin", "_enumerate_sorted"), ("decomp", "_assembly_plan"),
    ("decomp", "_default_point"),
    ("elements", "_schur_inverses"), ("exactnum", "_zeta_powers"),
    ("scalars", "_pair_factor"), ("seminormal", "_cached_units"),
    ("seminormal", "_memo_word"), ("seminormal", "_shape_skeleton"),
}


def test_every_lru_cache_is_bounded():
    # a cache without a finite bound grows with every point a process
    # samples, so each one names its maxsize as a positive int; the set
    # of memos is listed, so adding or dropping one shows here
    found, unbounded = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        ints = _module_ints(tree)
        for node, dec in _cache_decorators(tree):
            found.add((path.stem, node.name))
            size = None
            if isinstance(dec, ast.Call):
                args = [kw.value for kw in dec.keywords
                        if kw.arg == "maxsize"] + dec.args[:1]
                if args and isinstance(args[0], ast.Constant):
                    size = args[0].value
                elif args and isinstance(args[0], ast.Name):
                    size = ints.get(args[0].id)
            if type(size) is not int or size < 1:
                unbounded.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == MEMOS
    assert not unbounded, f"caches without a finite int maxsize: {unbounded}"


def test_skeleton_memos_are_typed_behind_plain_functions():
    # 1, True and 1.0 are equal keys to an untyped memo; and the
    # benchmark tracer times only plain functions, so each memo sits
    # behind the public function it serves
    for memo in (combin._enumerate_sorted, decomp._assembly_plan,
                 decomp._default_point, seminormal._shape_skeleton,
                 seminormal._cached_units):
        params = memo.cache_parameters()
        assert params["typed"] and type(params["maxsize"]) is int
    for fn in (combin.enumerate_all, decomp.assemble_matrix,
               seminormal.build_rep, seminormal.SeminormalRep.__init__,
               tableau.content, tableau.enumerate_std):
        assert inspect.isfunction(fn), fn


def test_only_mode_fields_takes_mode_trials_or_rng():
    # a verifier takes the fields it checks over as `points`; turning a
    # mode, trials and an rng into fields is the job of mode_fields, and
    # a click command reads them from its flags.  The samplers that draw
    # one point or table from a given rng keep it.
    allowed = {"mode_fields", "sample_point", "_random_table",
               "_splittable_sweep"}
    found = [
        f"{path.name}:{node.lineno} {node.name}({arg.arg})"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in allowed and not _is_command(node)
        for arg in node.args.posonlyargs + node.args.args
        + node.args.kwonlyargs
        if arg.arg in ("mode", "trials", "rng")
    ]
    assert "seminormal.py" in {path.name for path in SRC.glob("*.py")}
    assert not found, f"field choices outside mode_fields: {found}"


def test_only_reduce_matrix_takes_char():
    # the twist solves and the assembly work in characteristic 0; taking
    # residues modulo a prime afterwards is the job of reduce_matrix alone
    tree = ast.parse((SRC / "decomp.py").read_text())
    found = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(arg.arg == "char" for arg in node.args.posonlyargs
                + node.args.args + node.args.kwonlyargs)
    ]
    assert found == ["reduce_matrix"]


def _defs_and_nodes(tree):
    """(name of the innermost top-level or method definition, node)."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            yield inner, child
            yield from walk(child, inner)
    yield from walk(tree, None)


def test_only_exactnum_knows_the_backends():
    # consumers reach a field through the protocol in exactnum's
    # docstring: no private name of exactnum, no isinstance test on a
    # backend, and is_generic read once, where the rep memo builds its
    # units: it sets their size and whether their words are memoized
    found, generic = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exactnum.py":
            continue
        for owner, node in _defs_and_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) \
                    and (node.module or "").endswith("exactnum"):
                found += [f"{path.name}: imports {a.name}"
                          for a in node.names if a.name.startswith("_")]
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", None) == "isinstance":
                names = {n.id for n in ast.walk(node.args[1])
                         if isinstance(n, ast.Name)}
                found += [f"{path.name}:{node.lineno} isinstance {name}"
                          for name in names & {"SpecPoint", "GenericField"}]
            if isinstance(node, ast.Attribute) and node.attr == "is_generic":
                generic.add(f"{path.stem}.{owner}")
    assert not found, found
    assert generic == {"seminormal._cached_units"}
    from cyclohecke import cli, exactnum
    assert not hasattr(exactnum.SpecPoint, "embed")
    assert not hasattr(cli, "_field_json")
    assert exactnum.generic_field is exactnum.GenericField
    assert cli.scalar_to_json is exactnum.scalar_to_json


def test_one_path_evaluates_a_word():
    # the L-recursion self-check, the relation checks and characters go
    # through eval_word, which alone decides whether a value is memoized
    callers = {
        f"{path.stem}.{owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner, node in _defs_and_nodes(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and "_eval_word" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"seminormal.eval_word", "seminormal._memo_word"}


def test_only_exactnum_reads_the_form_of_a_value():
    # a consumer computes with + - * / and ==, never with the slots of a
    # RatFunc (poly, num, den) or a CycRat (den)
    found = [
        f"{path.name}:{node.lineno} reads .{node.attr}"
        for path in sorted(SRC.glob("*.py")) if path.name != "exactnum.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in ("poly", "num", "den")
    ]
    assert not found, found


def test_only_exactnum_imports_the_value_types():
    # a consumer computes with the values its field hands out and never
    # builds one itself: only the package's re-exports name the backends'
    # value types and eps_pow
    found = [
        f"{path.name}:{node.lineno} imports {a.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("exactnum.py", "__init__.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").endswith("exactnum")
        for a in node.names
        if a.name in ("CycRat", "RatFunc", "LaurentPoly", "eps_pow")
    ]
    assert "decomp.py" in {path.name for path in SRC.glob("*.py")}
    assert not found, found


def test_one_runner_walks_the_units_of_a_word_verdict():
    # a word verdict goes through elements.check_identities, the one
    # caller of element_equal; element_equal, trace and the eigen oracle
    # are the only code that walks the evaluation units
    calls = {"evaluation_units": set(), "element_equal": set()}
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _defs_and_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                if name in calls:
                    calls[name].add(f"{path.stem}.{owner}")
    assert calls == {
        "evaluation_units": {"seminormal.element_equal", "elements.trace",
                             "elements.flam_eigen_oracle"},
        "element_equal": {"elements.check_identities"},
    }
