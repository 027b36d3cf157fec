"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces the package's public functions and methods
with timing wrappers, in every ``cyclohecke`` module namespace that
holds them (and in the benchmark's own workload module).  The package
itself is not modified on disk.

Two kinds of wrapper share one call stack:

* span wrappers, at the coarse layer boundaries (task -> elements /
  scalars / decomp entry -> seminormal -> matrices), record
  ``(id, parent id, name, start, end)`` in memory;
* aggregate wrappers, for the scalar tower and other fine-grained
  helpers that run hundreds of thousands of times, only add to a call
  count and a time total.

Self time of a wrapper is its duration minus the time of the wrapped
calls nested inside it, accumulated per group as the calls return.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

import cyclohecke as ch
from cyclohecke import cli, combin, decomp, elements, exactnum, matrices
from cyclohecke import scalars, seminormal, tableau

SEMINORMAL_TOKENS = ("T", "Tinv", "L", "scal", "sum")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.spans = []
        # frame: [time covered by wrapped children, span id, name]
        self._stack = [[0.0, 0, "root"]]
        self._next_id = 1

    # --- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, group: str, span: bool, hook=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        spans, perf = self.spans, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = parent[1]
            frame = [0.0, sid, name]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                self_s[group] += dur - frame[0]
                calls[name] += 1
                if span:
                    spans.append((sid, parent[1], name, t0, t1))
            if hook is not None:
                hook(tracer, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span that is not a package call."""
        return self.wrap(fn, name, name.split(".")[0], True)(*args)

    # --- installation ------------------------------------------------------

    def install(self, *extra_modules) -> None:
        """Wrap everything in PLAN, in every namespace that refers to it."""
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "cyclohecke" or k.startswith("cyclohecke.")]
        namespaces.extend(extra_modules)
        for owner, attrs, name, group, span, hook in _plan():
            for attr in attrs:
                if inspect.isclass(owner):
                    self._wrap_method(owner, attr, name, group, span, hook)
                else:
                    fn = getattr(owner, attr)
                    wrapped = self.wrap(fn, name, group, span, hook)
                    for mod in namespaces:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, key, wrapped)

    def _wrap_method(self, cls, attr, name, group, span, hook) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, name, group,
                                             span, hook))
        else:
            wrapped = self.wrap(raw, name, group, span, hook)
        # aliases such as __rmul__ = __mul__ share the wrapper
        for key, value in list(cls.__dict__.items()):
            if value is raw:
                setattr(cls, key, wrapped)

    # --- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end"]))
            fh.write("\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f'[{sid},{parent},"{name}",{t0!r},{t1!r}]\n')

    def metrics(self) -> dict:
        """Per-layer metrics of everything run since install: name -> (value, unit)."""
        c, s, x = self.calls, self.self_s, self.extra

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "exactnum.cycrat_mul.calls": (c["exactnum.cycrat_mul"], "count"),
            "exactnum.cycrat_add.calls": (c["exactnum.cycrat_add"], "count"),
            "exactnum.cycrat_inv.calls": (c["exactnum.cycrat_inv"], "count"),
            "exactnum.cycrat.self_s": (s["exactnum.cycrat"], "s"),
            "exactnum.laurent_mul.calls": (c["exactnum.laurent_mul"], "count"),
            "exactnum.laurent_mul.terms": (x["laurent_mul.terms"], "count"),
            "exactnum.laurent.self_s": (s["exactnum.laurent"], "s"),
            "exactnum.ratfunc_new.calls": (c["exactnum.ratfunc_new"], "count"),
            "exactnum.ratfunc.self_s": (s["exactnum.ratfunc"], "s"),
            "exactnum.sample_point.calls":
                (c["exactnum.sample_point"], "count"),
            # accepted points per candidate tested by is_separated
            "exactnum.sample_point.accept_ratio":
                (ratio(c["exactnum.sample_point"],
                       x["sample_point.candidates"]), "ratio"),
            "matrices.mat_mul.calls": (c["matrices.mat_mul"], "count"),
            # computed from operand shapes: sum of rows * inner * cols
            "matrices.mat_mul.scalar_mults":
                (x["mat_mul.scalar_mults"], "count"),
            "matrices.mat_mul.self_s": (s["matrices.mat_mul"], "s"),
            "matrices.mat_add.calls": (c["matrices.mat_add"], "count"),
            "matrices.mat_add.self_s": (s["matrices.mat_add"], "s"),
            "matrices.mat_scale.calls": (c["matrices.mat_scale"], "count"),
            "matrices.mat_scale.self_s": (s["matrices.mat_scale"], "s"),
            "matrices.mat_eq.calls": (c["matrices.mat_eq"], "count"),
            "matrices.mat_det_gauss.calls":
                (c["matrices.mat_det_gauss"], "count"),
            "matrices.mat_det_gauss.self_s":
                (s["matrices.mat_det_gauss"], "s"),
            "seminormal.build_rep.calls": (c["seminormal.build_rep"], "count"),
            # 1 - constructions / build_rep calls
            "seminormal.rep_cache.hit_ratio":
                (1.0 - ratio(c["seminormal.rep_build"],
                             c["seminormal.build_rep"])
                 if c["seminormal.build_rep"] else 0.0, "ratio"),
            "seminormal.rep_build.self_s": (s["seminormal.rep_build"], "s"),
            "seminormal.eval_word.calls": (x["eval_word.outer"], "count"),
            "seminormal.eval_word.self_s": (s["seminormal.eval_word"], "s"),
        }
        for tag in SEMINORMAL_TOKENS:
            out[f"seminormal.eval_word.tokens.{tag}"] = (
                x[f"eval_word.tokens.{tag}"], "count")
        out.update({
            "elements.words.self_s": (s["elements.words"], "s"),
            "elements.verify.self_s": (s["elements.verify"], "s"),
            "elements.flam_eigen_oracle.self_s":
                (s["elements.flam_eigen_oracle"], "s"),
        })
        for fn in ("schur_element", "f_lambda_closed", "g_lambda"):
            out[f"scalars.{fn}.calls"] = (c[f"scalars.{fn}"], "count")
            out[f"scalars.{fn}.self_s"] = (s[f"scalars.{fn}"], "s")
        out["scalars.verify_factorization.self_s"] = (
            s["scalars.verify_factorization"], "s")
        for fn in ("split_by_formula", "relations_oracle",
                   "splittable_number", "assemble_matrix"):
            out[f"decomp.{fn}.calls"] = (c[f"decomp.{fn}"], "count")
            out[f"decomp.{fn}.self_s"] = (s[f"decomp.{fn}"], "s")
        out.update({
            "decomp.d_product.calls": (c["decomp.d_product"], "count"),
            "combin.self_s": (s["combin"], "s"),
            "tableau.enumerate_std.self_s":
                (s["tableau.enumerate_std"], "s"),
            "tableau.content.calls": (c["tableau.content"], "count"),
            "cli.serialize.self_s": (s["cli.serialize"], "s"),
        })
        return out


# --- hooks: counts that need the arguments or the result ----------------------


def _laurent_terms(tracer, parent, args, result):
    if result is not NotImplemented:
        tracer.extra["laurent_mul.terms"] += len(result.terms)


def _mat_mul_size(tracer, parent, args, result):
    a, b = args[0], args[1]
    if a and b and b[0]:
        tracer.extra["mat_mul.scalar_mults"] += len(a) * len(b) * len(b[0])


def _eval_word_tokens(tracer, parent, args, result):
    if parent[2] != "seminormal.eval_word":
        tracer.extra["eval_word.outer"] += 1
    for item in args[1]:
        tracer.extra[f"eval_word.tokens.{item[0]}"] += 1


def _separated_candidate(tracer, parent, args, result):
    if parent[2] == "exactnum.sample_point":
        tracer.extra["sample_point.candidates"] += 1


# --- what gets wrapped ------------------------------------------------------


def _public_functions(module, skip=()) -> list:
    """Plain functions defined in the module, generators excluded: a
    wrapper would time only the creation of the generator."""
    return [name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_") and name not in skip
            and not inspect.isgeneratorfunction(fn)]


def _methods(cls, skip=()) -> list:
    """Public methods and the arithmetic dunders of a class, no aliases."""
    out, seen = [], set()
    for name, raw in vars(cls).items():
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
            else raw
        if isinstance(raw, classmethod) or not inspect.isfunction(fn):
            continue
        if name in skip or id(raw) in seen:
            continue
        if name.startswith("_") and name not in _DUNDERS:
            continue
        seen.add(id(raw))
        out.append(name)
    return out


# __bool__ and __hash__ are left out, as are the plain constructors of
# CycRat and LaurentPoly: they are single statements run for every value
# or truth test, so wrapping them would mostly measure the wrapper.
_DUNDERS = {"__init__", "__add__", "__sub__", "__rsub__", "__mul__",
            "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__eq__",
            "__ne__"}

_WORD_BUILDERS = [name for name in _public_functions(elements)
                  if name.endswith("_word")]


def _plan() -> list:
    """(owner, attributes, call-count name, self-time group, span?, hook)."""
    plan = [
        # exactnum: the scalar tower, aggregated
        (ch.CycRat, ["__mul__"], "exactnum.cycrat_mul", "exactnum.cycrat",
         False, None),
        (ch.CycRat, ["__add__", "__sub__", "__rsub__"],
         "exactnum.cycrat_add", "exactnum.cycrat", False, None),
        (ch.CycRat, ["inverse"], "exactnum.cycrat_inv", "exactnum.cycrat",
         False, None),
        (ch.CycRat, _methods(ch.CycRat, skip={
            "__init__", "__mul__", "__add__", "__sub__", "__rsub__",
            "inverse"}),
         "exactnum.cycrat_other", "exactnum.cycrat", False, None),
        (exactnum, ["eps_pow"], "exactnum.cycrat_other", "exactnum.cycrat",
         False, None),
        (ch.LaurentPoly, ["__mul__"], "exactnum.laurent_mul",
         "exactnum.laurent", False, _laurent_terms),
        (ch.LaurentPoly, _methods(ch.LaurentPoly,
                                  skip={"__init__", "__mul__"}),
         "exactnum.laurent_other", "exactnum.laurent", False, None),
        (ch.RatFunc, ["__init__"], "exactnum.ratfunc_new",
         "exactnum.ratfunc", False, None),
        (ch.RatFunc, _methods(ch.RatFunc, skip={"__init__"}),
         "exactnum.ratfunc_other", "exactnum.ratfunc", False, None),
        (exactnum, ["sample_point"], "exactnum.sample_point",
         "exactnum.sample_point", False, None),
        (exactnum, ["is_separated"], "exactnum.is_separated",
         "exactnum.sample_point", False, _separated_candidate),
        (exactnum, ["is_semisimple"], "exactnum.is_semisimple",
         "exactnum.sample_point", False, None),
        # cli: the JSON encoders used to serialize results
        (cli, ["scalar_to_json"], "cli.scalar_to_json", "cli.serialize",
         False, None),
        (exactnum, ["laurent_to_json", "ratfunc_to_json"],
         "cli.laurent_to_json", "cli.serialize", False, None),
        (ch.SpecPoint, ["to_json"], "cli.point_to_json", "cli.serialize",
         False, None),
    ]
    # matrices: one span per call
    for fn in _public_functions(matrices):
        hook = _mat_mul_size if fn == "mat_mul" else None
        plan.append((matrices, [fn], f"matrices.{fn}", f"matrices.{fn}",
                     True, hook))
    plan += [
        # seminormal
        (seminormal, ["build_rep"], "seminormal.build_rep",
         "seminormal.build_rep", True, None),
        (seminormal.SeminormalRep, ["__init__"], "seminormal.rep_build",
         "seminormal.rep_build", True, None),
        (seminormal, ["eval_word"], "seminormal.eval_word",
         "seminormal.eval_word", True, _eval_word_tokens),
        (seminormal, ["element_equal", "mode_fields", "check_relations",
                      "character"],
         "seminormal.other", "seminormal.other", True, None),
        # elements
        (elements, ["verify_changing", "verify_pleftmult",
                    "verify_comparison", "trace_vbtb", "trace",
                    "vbtb_trace_closed"],
         "elements.verify", "elements.verify", True, None),
        (elements, ["flam_eigen_oracle"], "elements.flam_eigen_oracle",
         "elements.flam_eigen_oracle", True, None),
        (elements, _WORD_BUILDERS, "elements.words", "elements.words",
         False, None),
    ]
    # scalars
    for fn in ("schur_element", "schur_element_b", "f_lambda_closed",
               "g_lambda", "verify_factorization"):
        plan.append((scalars, [fn], f"scalars.{fn}", f"scalars.{fn}",
                     True, None))
    plan.append((scalars, _public_functions(scalars, skip={
        "schur_element", "schur_element_b", "f_lambda_closed", "g_lambda",
        "verify_factorization"}), "scalars.other", "scalars.other",
        False, None))
    # decomp
    for fn in ("split_by_formula", "relations_oracle", "splittable_number",
               "assemble_matrix"):
        plan.append((decomp, [fn], f"decomp.{fn}", f"decomp.{fn}",
                     True, None))
    plan += [
        (decomp, ["d_product"], "decomp.d_product", "decomp.other",
         False, None),
        (decomp, _public_functions(decomp, skip={
            "split_by_formula", "relations_oracle", "splittable_number",
            "assemble_matrix", "d_product"}),
         "decomp.other", "decomp.other", False, None),
        (ch.DecompTable, _methods(ch.DecompTable), "decomp.table",
         "decomp.other", False, None),
        # combin and tableau; the hottest one-line accessors stay
        # unwrapped, their time lands in the caller (mostly combin itself)
        (combin, _public_functions(combin, skip={"check_partition"}),
         "combin.other", "combin", False, None),
        (ch.Multipartition, _methods(ch.Multipartition,
                                     skip={"block", "component"}),
         "combin.other", "combin", False, None),
        (tableau, ["enumerate_std"], "tableau.enumerate_std",
         "tableau.enumerate_std", False, None),
        (tableau, ["content"], "tableau.content", "tableau.other",
         False, None),
        (tableau, _public_functions(tableau, skip={
            "enumerate_std", "content"}), "tableau.other", "tableau.other",
         False, None),
        (ch.StandardTableau, _methods(ch.StandardTableau), "tableau.other",
         "tableau.other", False, None),
    ]
    return plan
