"""Command line front end: JSON I/O, fixtures, and batch verification.

Every subcommand reads flags and JSON files, runs one computation, and
emits a single JSON document on standard output (or to --out).  Exit
codes: 0 success, 2 validation error, 3 verification failure or a
failed internal invariant (error kind ``internal``), 4 inconsistent
input data.  All randomness is seeded; sampled points are
logged in the output so runs can be replayed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from fractions import Fraction
from random import Random

import click

from .combin import (
    Multipartition,
    check_composition,
    compositions,
    enumerate_all,
    enumerate_pdb,
)
from .decomp import (
    ClassSums,
    DecompTable,
    InputDataError,
    assemble_matrix,
    cyclic_reindex,
    d_product,
    dim_report,
    reduce_matrix,
    relations_oracle,
    semisimple_table,
    split_by_formula,
    splittable_number,
)
from .elements import (
    VerificationError,
    check_identities,
    flam_eigen_oracle,
    identities,
    trace_vbtb,
    vbtb_trace_closed,
)
from .exactnum import PoleError, generic_field, scalar_to_json
from .scalars import (
    f_lambda_closed,
    g_lambda,
    schur_element,
    schur_element_b,
    verify_factorization,
)
from .seminormal import build_rep, check_relations, mode_fields
from .tableau import count_std


# --- JSON plumbing ---------------------------------------------------------


def _emit(data, out=None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(json.dumps({"written": out}))
    else:
        click.echo(text, nl=False)


def _fail(kind: str, message: str, code: int) -> None:
    click.echo(json.dumps({"error": {"kind": kind, "message": message}},
                          indent=2))
    sys.exit(code)


def _guarded(fn):
    # a TypeError or KeyError that escapes the readers below is a bug
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputDataError as exc:
            _fail("input-data", str(exc), 4)
        except VerificationError as exc:
            _fail("verification", str(exc), 3)
        except (RuntimeError, TypeError, KeyError) as exc:
            _fail("internal", str(exc), 3)
        except (ValueError, OSError) as exc:
            _fail("validation", str(exc), 2)

    return wrapper


@contextlib.contextmanager
def _reading():
    """Reading a flag or a file: input of the wrong shape, which raises
    TypeError or KeyError, is a ValueError with the same message."""
    try:
        yield
    except (TypeError, KeyError) as exc:
        raise ValueError(str(exc)) from None


def _json_flag(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad {what} JSON {text!r}: {exc}") from None


@_reading()
def _comp_flag(text: str) -> tuple:
    b = check_composition(_json_flag(text, "composition"))
    if not b:
        raise ValueError("composition must have at least one part")
    return b


def _size_flag(n):
    if n is not None and n < 0:
        raise ValueError(f"size must be nonnegative, got n={n}")
    return n


@_reading()
def _mp_flag(p: int, d: int, text: str) -> Multipartition:
    return Multipartition(p, d, _json_flag(text, "multipartition"))


@_reading()
def _load_tables(path: str) -> list:
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("tables", [data])
    return [DecompTable.from_json(tab) for tab in data]


@_reading()
def _load_klesh(path: str, p: int, d: int) -> list:
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["labels"]
    return [Multipartition(p, d, x) for x in data]


def _prime_char(char) -> None:
    if char is not None and (char < 2 or any(
            char % k == 0 for k in range(2, math.isqrt(char) + 1))):
        raise ValueError(f"characteristic must be prime, got {char}")


def _b_flag(b_text: str, p, n) -> tuple:
    """The composition --b, checked against --p and --n when given."""
    b = _comp_flag(b_text)
    if p is not None and p != len(b):
        raise ValueError(f"--p {p} disagrees with len(b) = {len(b)}")
    if _size_flag(n) is not None and n != sum(b):
        raise ValueError(f"--n {n} disagrees with |b| = {sum(b)}")
    return b


# --- command group ---------------------------------------------------------


@click.group()
def main():
    """Exact computations for Hecke algebras of type G(r,p,n)."""


@main.command("enumerate")
@click.option("--p", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--n", type=int, default=None)
@click.option("--b", "b_text", default=None,
              help="composition JSON, e.g. [2,1]")
@click.option("--out", default=None)
@_guarded
def enumerate_cmd(p, d, n, b_text, out):
    """Multipartitions of size n (or composition b) with orbit data."""
    if b_text is not None:
        b = _b_flag(b_text, p, n)
        shapes = enumerate_pdb(d, b)
        n = sum(b)
    elif _size_flag(n) is None:
        raise ValueError("need --n or --b")
    else:
        shapes = enumerate_all(p, d, n)
    payload = {
        "p": p, "d": d, "n": n, "count": len(shapes),
        "shapes": [
            {
                "comps": la.to_json(),
                "b": list(la.composition()),
                "orbit": la.orbit_order()[0],
                "split": dims.p_lambda,
                "dim_std": dims.dim_specht,
                "dim_summand": dims.dim_summand,
            }
            for la in shapes
            for dims in [dim_report(la)]
        ],
    }
    _emit(payload, out)


@main.command("seminormal-check")
@click.option("--p", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--lambda", "la_text", default=None)
@click.option("--mode", type=click.Choice(["auto", "symbolic", "random"]),
              default="auto")
@click.option("--trials", type=int, default=3)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
@_guarded
def seminormal_check(p, d, n, la_text, mode, trials, seed, out):
    """Check the defining relations on seminormal representations."""
    n = _size_flag(n)
    if la_text is not None:
        la = _mp_flag(p, d, la_text)
        if la.size != n:
            raise ValueError(f"lambda has size {la.size}, expected {n}")
        shapes = [la]
    else:
        shapes = enumerate_all(p, d, n)
    fields = mode_fields(p, d, n, mode, trials=trials, rng=Random(seed))
    failures = []
    for idx, field in enumerate(fields):
        for shape in shapes:
            for relation in check_relations(build_rep(shape, field)):
                failures.append({
                    "field": idx,
                    "shape": shape.to_json(),
                    "relation": relation,
                })
    payload = {
        "op": "seminormal-check",
        "p": p, "d": d, "n": n,
        "mode": mode, "seed": seed,
        "fields": [f.to_json() for f in fields],
        "shapes": len(shapes),
        "passed": not failures,
        "failures": failures,
    }
    _emit(payload, out)
    if failures:
        sys.exit(3)


# --- verify ----------------------------------------------------------------


def _verify_options(fn):
    for deco in (
        click.option("--b", "b_text", required=True,
                     help="composition JSON, e.g. [2,1]"),
        click.option("--d", type=int, default=1),
        click.option("--p", type=int, default=None,
                     help="consistency check against len(b)"),
        click.option("--n", type=int, default=None,
                     help="consistency check against |b|"),
        click.option("--mode", type=click.Choice(["auto", "symbolic",
                                                  "random"]),
                     default="auto"),
        click.option("--trials", type=int, default=3),
        click.option("--seed", type=int, default=0),
        click.option("--out", default=None),
    ):
        fn = deco(fn)
    return fn


@main.group()
def verify():
    """Structural element identities and trace comparisons."""


def _emit_verdict(payload, out) -> None:
    _emit(payload, out)
    if not payload["passed"]:
        sys.exit(3)


def _identity_command(kind: str, doc: str):
    @verify.command(kind, help=doc)
    @_verify_options
    @_guarded
    def command(b_text, d, p, n, mode, trials, seed, out):
        b = _b_flag(b_text, p, n)
        fields = mode_fields(len(b), d, sum(b), mode, trials=trials,
                             rng=Random(seed))
        table = identities(kind, b, d)
        failed = check_identities(len(b), d, sum(b), table, fields)
        payload = {"op": f"verify {kind}", "b": list(b), "d": d,
                   "mode": mode, "trials": trials, "seed": seed,
                   "fields": [f.to_json() for f in fields]}
        if kind == "changing":
            payload["pivots"] = {j: j not in failed for j, _, _ in table}
        payload["passed"] = not failed
        _emit_verdict(payload, out)


_identity_command("changing",
                  "Pivot rewritings of v_b against the plain product, all "
                  "pivots.")
_identity_command("pleftmult", "Full shift cycle against v_b T_b.")
_identity_command("comparison", "Trace comparison over the full tensor basis.")


@verify.command("trace-vbtb")
@_verify_options
@_guarded
def verify_trace_vbtb_cmd(b_text, d, p, n, mode, trials, seed, out):
    """Closed trace of v_b T_b against the character expansion."""
    b = _b_flag(b_text, p, n)
    fields = mode_fields(len(b), d, sum(b), mode, trials=trials,
                         rng=Random(seed))
    checks = [trace_vbtb(b, field) for field in fields]
    _emit_verdict({
        "op": "verify trace-vbtb", "b": list(b), "d": d,
        "mode": mode, "seed": seed,
        "fields": [f.to_json() for f in fields],
        "values": [scalar_to_json(c.value) for c in checks],
        "passed": all(c.matched for c in checks),
    }, out)


@verify.command("factorization")
@click.option("--p", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--n", type=int, default=None)
@click.option("--lambda", "la_text", default=None)
@click.option("--mode", type=click.Choice(["symbolic", "random"]),
              default="symbolic")
@click.option("--trials", type=int, default=3)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
@_guarded
def verify_factorization_cmd(p, d, n, la_text, mode, trials, seed, out):
    """g^split against the eps-power times f, per shape."""
    if la_text is not None:
        la = _mp_flag(p, d, la_text)
        if n is not None and la.size != n:
            raise ValueError(f"lambda has size {la.size}, expected {n}")
        shapes = [la]
    elif _size_flag(n) is not None:
        shapes = enumerate_all(p, d, n)
    else:
        raise ValueError("need --lambda or --n")
    fields = mode_fields(p, d, max(shapes[0].size, 1), mode, trials=trials,
                         rng=Random(seed))
    failures = [la.to_json() for la in shapes
                if not verify_factorization(la, la.composition(), fields)]
    _emit_verdict({
        "op": "verify factorization", "p": p, "d": d,
        "mode": mode, "seed": seed,
        "fields": [f.to_json() for f in fields],
        "shapes": len(shapes), "failures": failures, "passed": not failures,
    }, out)


# --- scalars ---------------------------------------------------------------


def _scalar_options(fn):
    for deco in (
        click.option("--p", type=int, required=True),
        click.option("--d", type=int, required=True),
        click.option("--lambda", "la_text", required=True),
        click.option("--b", "b_text", default=None),
        click.option("--mode", type=click.Choice(["symbolic", "random"]),
                     default="symbolic"),
        click.option("--trials", type=int, default=3),
        click.option("--seed", type=int, default=0),
        click.option("--out", default=None),
    ):
        fn = deco(fn)
    return fn


@main.group()
def scalar():
    """Schur elements and the scalars f and g."""


def _scalar_command(kind: str, doc: str):
    @scalar.command(kind, help=doc)
    @_scalar_options
    @_guarded
    def command(p, d, la_text, b_text, mode, trials, seed, out):
        la = _mp_flag(p, d, la_text)
        b = _comp_flag(b_text) if b_text is not None else la.composition()
        fields = mode_fields(p, d, max(la.size, 1), mode, trials=trials,
                             rng=Random(seed))
        values = []
        for field in fields:
            if kind == "schur":
                value = (schur_element(p * d, la, field) if b_text is None
                         else schur_element_b(la, b, field))
            elif kind == "f":
                value = f_lambda_closed(la, b, field)
            else:
                value = g_lambda(la, b, field)
            values.append(value)
        _emit({
            "op": f"scalar {kind}", "p": p, "d": d,
            "lambda": la.to_json(), "b": list(b),
            "mode": mode, "seed": seed,
            "fields": [f.to_json() for f in fields],
            "values": [scalar_to_json(v) for v in values],
        }, out)


_scalar_command("schur",
                "Schur element; of H_{r,n} by default, of H_{d,b} with --b.")
_scalar_command("f", "The central-element scalar f.")
_scalar_command("g", "The distinguished root g of f.")


# --- decomposition data ----------------------------------------------------


@main.command("splittable")
@click.option("--p", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--lambda", "la_text", required=True)
@click.option("--mu", "mu_text", required=True)
@click.option("--tables", "tables_path", required=True)
@click.option("--char", type=int, default=None)
@click.option("--mode", type=click.Choice(["symbolic", "random"]),
              default="symbolic")
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
@_guarded
def splittable_cmd(p, d, la_text, mu_text, tables_path, char, mode, seed,
                   out):
    """All twist multiplicities of a splittable pair."""
    _prime_char(char)
    la = _mp_flag(p, d, la_text)
    mu = _mp_flag(p, d, mu_text)
    tables = _load_tables(tables_path)
    field = None
    if la.orbit_order()[1] <= 1 and mu.orbit_order()[1] <= 1:
        ratio = 1
    else:
        if la.composition() != mu.composition():
            raise ValueError("lambda and mu have different compositions")
        (field,) = mode_fields(p, d, la.size, mode, trials=1,
                               rng=Random(seed))
        b = la.composition()
        ratio = g_lambda(la, b, field) / g_lambda(mu, b, field)
    result = split_by_formula(la, mu, tables, ratio, field)
    payload = {
        "op": "splittable", "p": p, "d": d,
        "lambda": la.to_json(), "mu": mu.to_json(),
        "split": result.split,
        "values": [[v.numerator, v.denominator] for v in result.values],
        "provenance": result.provenance,
        "char": char,
        "residues": None if char is None
        else [int(v) % char for v in result.values],
        "mode": mode, "seed": seed,
    }
    if field is not None:
        payload["field"] = field.to_json()
    _emit(payload, out)


@main.command("assemble")
@click.option("--p", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--tables", "tables_path", required=True)
@click.option("--klesh", "klesh_path", required=True)
@click.option("--char", type=int, default=None)
@click.option("--mode", type=click.Choice(["symbolic", "random"]),
              default="symbolic")
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
@_guarded
def assemble_cmd(p, d, n, tables_path, klesh_path, char, mode, seed, out):
    """The labelled decomposition matrix from input tables."""
    _prime_char(char)
    tables = _load_tables(tables_path)
    klesh = _load_klesh(klesh_path, p, d)
    (field,) = mode_fields(p, d, n, mode, trials=1, rng=Random(seed))
    payload = assemble_matrix(p * d, p, n, tables, klesh, point=field)
    if char is not None:
        payload = reduce_matrix(payload, char)
    payload["mode"] = mode
    payload["seed"] = seed
    if mode == "random":
        payload["field"] = field.to_json()
    _emit(payload, out)


@main.command("semisimple-tables")
@click.option("--s", type=int, required=True,
              help="components of the input algebra")
@click.option("--m", type=int, default=None, help="one table of this size")
@click.option("--n", type=int, default=None,
              help="the whole battery of sizes 0..n")
@click.option("--out", default=None)
@_guarded
def semisimple_tables_cmd(s, m, n, out):
    """Identity decomposition tables of semisimple component algebras."""
    if (m is None) == (n is None):
        raise ValueError("give exactly one of --m, --n")
    sizes = [m] if m is not None else list(range(_size_flag(n) + 1))
    _emit({"tables": [semisimple_table(s, k).to_json() for k in sizes]}, out)


@main.command("reduce-mod")
@click.option("--matrix", "matrix_path", required=True,
              help="output JSON of the assemble command")
@click.option("--char", type=int, required=True)
@click.option("--out", default=None)
@_guarded
def reduce_mod_cmd(matrix_path, char, out):
    """An assembled matrix modulo a prime, as assemble --char gives it."""
    _prime_char(char)
    with _reading(), open(matrix_path) as fh:
        reduced = reduce_matrix(json.load(fh), char)
    _emit(reduced, out)


# --- acceptance grids ------------------------------------------------------


def _criterion_presentation(grid) -> str:
    shapes = 0
    for r, n in grid:
        fields = mode_fields(r, 1, n, "auto", None, 3, Random(101))
        for la in enumerate_all(r, 1, n):
            for field in fields:
                bad = check_relations(build_rep(la, field))
                if bad:
                    raise AssertionError(
                        f"relations fail at (r, n) = {(r, n)}, "
                        f"{la!r}: {bad}"
                    )
            shapes += 1
    return f"{shapes} shapes across {len(grid)} parameter pairs"


def _criterion_dimension(grid) -> str:
    for r, n in grid:
        total = sum(count_std(la) ** 2 for la in enumerate_all(r, 1, n))
        want = r ** n * math.factorial(n)
        if total != want:
            raise AssertionError(
                f"sum of squared dimensions at (r, n) = {(r, n)} "
                f"is {total}, expected {want}"
            )
    return f"{len(grid)} parameter pairs"


def _criterion_elements(ps, ds, n) -> str:
    checked = 0
    for p in ps:
        for d in ds:
            points = mode_fields(p, d, n, "random", None, 3,
                                 Random(211 + 10 * p + d))
            for b in compositions(n, p):
                table = identities("changing", b, d) \
                    + identities("pleftmult", b, d)
                failed = check_identities(p, d, n, table, points)
                if failed:
                    raise AssertionError(f"{failed} fail at b={b}, d={d}")
                checked += 1
    return f"{checked} compositions, 3 separated points each"


def _criterion_trace(ns) -> str:
    checked = 0
    for n in ns:
        fields = mode_fields(2, 1, n, "auto", None, 3, Random(17))
        comparison = mode_fields(2, 1, n, "auto", None, 3, Random(19))
        for b in compositions(n, 2):
            for field in fields:
                if not trace_vbtb(b, field).matched:
                    raise AssertionError(f"trace mismatch at b={b}")
            if check_identities(2, 1, n, identities("comparison", b, 1),
                                comparison):
                raise AssertionError(f"comparison fails at b={b}")
            checked += 1
    return f"{checked} compositions over the full tensor basis"


def _criterion_scalars(ps, ds, n) -> str:
    symbolic = 0
    for p in ps:
        for d in ds:
            field = generic_field(p, d)
            for b in compositions(n, p):
                tr = vbtb_trace_closed(b, field)
                for la in enumerate_pdb(d, b):
                    f = f_lambda_closed(la, b, field)
                    lhs = f * schur_element_b(la, b, field)
                    rhs = schur_element(p * d, la, field) * tr
                    if lhs != rhs:
                        raise AssertionError(
                            f"trace identity fails at {la!r}, b={b}")
                    symbolic += 1
            for pt in mode_fields(p, d, n, "random", None, 3,
                                  Random(307 + 10 * p + d)):
                for b in compositions(n, p):
                    oracle = flam_eigen_oracle(b, pt)
                    for la in enumerate_pdb(d, b):
                        if oracle[la] != f_lambda_closed(la, b, pt):
                            raise AssertionError(
                                f"eigen oracle mismatch at {la!r}, b={b}")
    return f"{symbolic} symbolic identities, oracle at 3 points per grid"


def _criterion_factorization(ps, ds, nmax) -> str:
    checked = 0
    for p in ps:
        for d in ds:
            for n in range(1, nmax + 1):
                for b in compositions(n, p):
                    for la in enumerate_pdb(d, b):
                        if la.orbit_order()[1] == 1:
                            continue
                        if not verify_factorization(la, b):
                            raise AssertionError(
                                f"factorization fails at {la!r}, b={b}")
                        checked += 1
    return f"{checked} shift-symmetric shapes, symbolic"


def _random_table(rng: Random, s: int, m: int) -> DecompTable:
    labels = sorted(enumerate_all(1, s, m),
                    key=Multipartition.sort_key, reverse=True)
    entries = [[i, i, 1] for i in range(len(labels))]
    for a, row in enumerate(labels):
        for c, col in enumerate(labels):
            if a != c and row.dominates(col) and rng.random() < 0.6:
                entries.append([a, c, rng.randint(1, 3)])
    data = [x.comps for x in labels]
    return DecompTable(s, m, data, data, entries)


def _splittable_sweep(p, tables, sample=None, rng=None) -> int:
    mps = enumerate_pdb(1, (2,) * p)
    pairs = [(la, mu) for la in mps for mu in mps
             if la.orbit_order()[1] == mu.orbit_order()[1]]
    if sample is not None and len(pairs) > sample:
        pairs = rng.sample(pairs, sample)
    for la, mu in pairs:
        formula = split_by_formula(la, mu, tables, 1)
        oracle = relations_oracle(la, mu, tables, (1, 1))
        if formula.values != oracle.values:
            raise AssertionError(
                f"formula disagrees with oracle at {la!r}, {mu!r}")
        l = formula.split
        if la == mu:
            want = tuple(Fraction(int(c == l)) for c in range(1, l + 1))
            if formula.values != want:
                raise AssertionError(f"diagonal pair is not a delta: {la!r}")
        d_val = d_product(la, mu, p // l, tables)
        if sum(formula.values) != d_val ** l:
            raise AssertionError(f"row sum violated at {la!r}, {mu!r}")
        for i, j in ((1, 1), (1, l)):
            if splittable_number(la, mu, i, j, tables, 1) \
                    != cyclic_reindex(formula, i, j):
                raise AssertionError(
                    f"entry extraction mismatch at {la!r}, {mu!r}")
    return len(pairs)


def _criterion_splittable(seeds) -> str:
    pairs = 0
    for p in (2, 3, 4):
        pairs += _splittable_sweep(p, [semisimple_table(1, 2)])
    for seed in range(seeds):
        rng = Random(seed)
        for p in (2, 3, 4):
            tables = [_random_table(rng, 1, 2)]
            pairs += _splittable_sweep(p, tables, sample=60, rng=rng)
        # Partial symmetry: only residue-class sums are pinned, and the
        # zeroth relation fixes their total.
        tables = [_random_table(rng, 1, 2)]
        la = Multipartition(4, 1, ((2,), (1, 1), (2,), (1, 1)))
        mu = Multipartition(4, 1, ((1, 1),) * 4)
        sums = relations_oracle(la, mu, tables, (1, 1))
        d_val = d_product(la, mu, 2, tables)
        if not isinstance(sums, ClassSums) \
                or sum(sums.sums) != 2 * d_val ** 2:
            raise AssertionError("class sums break the zeroth relation")
    return f"{pairs} splittable pairs, semisimple and {seeds} random tables"


def _label_count(p, d, n) -> int:
    """The rows of an assembled matrix: the split of every shift orbit.

    A second computation against the assembly, so it shares no memo with
    it: the labels come from `enumerate_pdb` per composition, not from
    the memo behind `enumerate_all`, and the orbits are sets of shifts,
    not the shift classes of the assembly plan (`decomp._assembly_plan`).
    """
    total = 0
    seen = set()
    for b in compositions(n, p):
        for la in enumerate_pdb(d, b):
            orbit = frozenset(la.shift(k) for k in range(p))
            if orbit not in seen:
                seen.add(orbit)
                total += la.orbit_order()[1]
    return total


def _criterion_assembly(nmax) -> str:
    for p in (2, 3):
        for n in range(1, nmax + 1):
            tables = [semisimple_table(1, m) for m in range(n + 1)]
            out = assemble_matrix(p, p, n, tables,
                                  list(enumerate_all(p, 1, n)))
            report = out["report"]
            count = _label_count(p, 1, n)
            if not (report["identity"] and report["unitriangular"]):
                raise AssertionError(
                    f"semisimple assembly is not the identity at "
                    f"p={p}, n={n}: {report}"
                )
            if report["rows"] != count or report["cols"] != count:
                raise AssertionError(
                    f"label count at p={p}, n={n} is "
                    f"{report['rows']}x{report['cols']}, expected {count}"
                )
    return f"identity matrices up to n = {nmax} for p in (2, 3)"


def _criterion_divisibility(nmax, pmax, dmax) -> str:
    checked = 0
    for p in range(1, pmax + 1):
        for d in range(1, dmax + 1):
            for n in range(1, nmax + 1):
                for la in enumerate_all(p, d, n):
                    split = la.orbit_order()[1]
                    if count_std(la) % split:
                        raise AssertionError(
                            f"dimension of {la!r} is not divisible by "
                            f"{split}"
                        )
                    checked += 1
    return f"{checked} shapes"


_DESK_GRID = [(2, 2), (2, 3), (3, 3), (4, 3), (2, 4)]
_QUICK_GRID = [(2, 2), (2, 3)]

# name, check, then (arguments, time budget in seconds) for the desk
# suite and for the quick suite
_CRITERIA = [
    ("1 presentation suite", _criterion_presentation,
     ((_DESK_GRID,), 120), ((_QUICK_GRID,), 60)),
    ("2 dimension identity", _criterion_dimension,
     ((_DESK_GRID,), None), ((_QUICK_GRID,), None)),
    ("3 element identities", _criterion_elements,
     (((2, 3), (1, 2), 3), 300), (((2,), (1,), 3), 60)),
    ("4 trace comparison", _criterion_trace,
     (((2, 3),), 300), (((2,),), 60)),
    ("5 scalar theorem", _criterion_scalars,
     (((2, 3), (1, 2), 3), None), (((2,), (1,), 3), None)),
    ("6 root factorization", _criterion_factorization,
     (((2, 3, 4), (1, 2), 4), None), (((2, 3), (1,), 3), None)),
    ("7 splittable vs oracle", _criterion_splittable,
     ((20,), 60), ((5,), 60)),
    ("8 assembly", _criterion_assembly,
     ((4,), None), ((3,), None)),
    ("9 divisibility", _criterion_divisibility,
     ((6, 3, 2), None), ((4, 3, 2), None)),
]


def _suite(column: int) -> list:
    out = []
    for name, check, *suites in _CRITERIA:
        args, budget = suites[column]
        out.append((name, functools.partial(check, *args), budget))
    return out


def desk_criteria() -> list:
    """The full acceptance grid: (name, check, time budget in seconds)."""
    return _suite(0)


def quick_criteria() -> list:
    """A trimmed grid that finishes within a minute."""
    return _suite(1)


def run_criterion(name: str, check, budget) -> dict:
    """Run one criterion: its record for the fixtures table.  A check
    fails on an AssertionError or a typed error, and a passing check
    fails too when it takes budget seconds or more."""
    start = time.perf_counter()
    try:
        detail = check()
        passed = True
    except AssertionError as exc:
        detail = str(exc)
        passed = False
    except (PoleError, InputDataError, VerificationError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    elapsed = time.perf_counter() - start
    if passed and budget is not None and elapsed >= budget:
        detail = f"took {elapsed:.1f}s, budget {budget}s: {detail}"
        passed = False
    return {"criterion": name, "passed": passed,
            "seconds": round(elapsed, 2), "detail": detail}


@main.command("fixtures")
@click.option("--suite", required=True)
@click.option("--out", default=None)
@_guarded
def fixtures_cmd(suite, out):
    """Run the acceptance grid and emit a pass/fail table."""
    suites = {"desk": desk_criteria, "quick": quick_criteria}
    if suite not in suites:
        raise ValueError(f"unknown suite {suite!r}; pick from desk, quick")
    results = [run_criterion(*criterion) for criterion in suites[suite]()]
    ok = all(r["passed"] for r in results)
    _emit({"suite": suite, "passed": ok, "results": results}, out)
    if not ok:
        sys.exit(3)


if __name__ == "__main__":
    main()
