"""Split decomposition numbers and assembly of labelled matrices.

Decomposition tables of the component algebras of type G(s,1,m) are
input data; nothing here computes them.  This module combines them:
for a pair with equal splitting number l the cyclic-twist relations
form an l x l system V(l) x = column whose matrix is the character
table of Z/l, so its closed-form inverse gives the multiplicities
[S^la_i : D^mu_j] exactly, and every other entry is reported as a
first-class unknown together with the residue-class sums the relations
do determine.  The relations oracle solves the same systems by generic
elimination, independently of the closed form.  Both work in the field
of the g values, through the field protocol of exactnum alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .combin import (
    Multipartition,
    class_reps,
    enumerate_all,
)
from .exactnum import GenericField, SpecPoint
from .matrices import mat_solve
from .scalars import g_lambda
from .tableau import count_std


class InputDataError(ValueError):
    """Supplied tables or scalars contradict the linear relations."""


class UnknownLabelError(InputDataError):
    """A table does not list a label the computation needs."""


class NonSplittableError(ValueError):
    """The pair has unequal splitting numbers; the formula does not apply."""


class NonConstantRatioError(InputDataError):
    """The supplied g ratio does not reduce to a rational constant."""


# --- input tables ---------------------------------------------------------


class DecompTable:
    """One component algebra's decomposition table, used as input data.

    Rows label standard modules, columns label simple modules (the
    column set is supplied externally), and entries are decomposition
    multiplicities.  Valid tables are unitriangular: every column
    label appears among the rows with diagonal entry 1, and a nonzero
    entry forces the row label to dominate the column label.  A table
    carries the component count s, the size m, and the twist exponent
    of its parameters; ``eps_power=None`` marks a table valid at every
    twist, which is how the semisimple generator labels its output.
    """

    __slots__ = ("s", "m", "eps_power", "rows", "cols", "entries",
                 "semisimple", "_row_pos", "_col_pos")

    def __init__(self, s: int, m: int, rows, cols, entries,
                 semisimple: bool = False, eps_power=None):
        for name, value in (("s", s), ("m", m)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputDataError(
                    f"{name} must be an integer, got {value!r}")
        if s < 1 or m < 0:
            raise InputDataError(f"bad table shape: s={s}, m={m}")
        if eps_power is not None and (
                not isinstance(eps_power, int) or isinstance(eps_power, bool)):
            raise InputDataError(
                f"eps_power must be an integer or null, got {eps_power!r}")
        self.s = s
        self.m = m
        self.eps_power = eps_power
        self.rows = tuple(self._label(x) for x in rows)
        self.cols = tuple(self._label(x) for x in cols)
        self._row_pos = {lab: i for i, lab in enumerate(self.rows)}
        self._col_pos = {lab: i for i, lab in enumerate(self.cols)}
        if len(self._row_pos) != len(self.rows):
            raise InputDataError("duplicate row label")
        if len(self._col_pos) != len(self.cols):
            raise InputDataError("duplicate column label")
        self.semisimple = bool(semisimple)
        self.entries = {}
        for ri, ci, v in entries:
            if not (0 <= ri < len(self.rows) and 0 <= ci < len(self.cols)):
                raise InputDataError(f"entry index out of range: {(ri, ci)}")
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InputDataError(f"entry must be a nonnegative integer: {v!r}")
            if (ri, ci) in self.entries:
                raise InputDataError(f"duplicate entry at {(ri, ci)}")
            if v:
                self.entries[ri, ci] = v
        self._validate()

    def _label(self, data) -> tuple:
        try:
            mp = Multipartition(1, self.s, data)
        except ValueError as exc:
            raise InputDataError(f"bad table label {data!r}: {exc}") from None
        if mp.size != self.m:
            raise InputDataError(
                f"label {data!r} has size {mp.size}, table holds size {self.m}"
            )
        return mp.comps

    def _validate(self) -> None:
        for lab in self.cols:
            ri = self._row_pos.get(lab)
            if ri is None:
                raise InputDataError(f"column label {lab!r} missing from rows")
            if self.entries.get((ri, self._col_pos[lab])) != 1:
                raise InputDataError(f"diagonal entry at {lab!r} must be 1")
        for (ri, ci) in self.entries:
            row = Multipartition(1, self.s, self.rows[ri])
            col = Multipartition(1, self.s, self.cols[ci])
            if not row.dominates(col):
                raise InputDataError(
                    f"nonzero entry at {self.rows[ri]!r} -> {self.cols[ci]!r} "
                    "breaks unitriangularity"
                )
        if self.semisimple:
            if set(self.rows) != set(self.cols):
                raise InputDataError("semisimple table needs rows == cols")
            for (ri, ci), v in self.entries.items():
                if self.rows[ri] != self.cols[ci] or v != 1:
                    raise InputDataError("semisimple table must be the identity")

    def entry(self, row_label, col_label) -> int:
        return self._entry(self._label(row_label), self._label(col_label))

    def _entry(self, row: tuple, col: tuple) -> int:
        """The entry at two labels already checked as component tuples."""
        ri = self._row_pos.get(row)
        if ri is None:
            raise UnknownLabelError(f"unknown row label {row!r}")
        ci = self._col_pos.get(col)
        if ci is None:
            raise UnknownLabelError(f"unknown column label {col!r}")
        return self.entries.get((ri, ci), 0)

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "m": self.m,
            "params": {"eps_power": self.eps_power},
            "rows": [[list(c) for c in lab] for lab in self.rows],
            "cols": [[list(c) for c in lab] for lab in self.cols],
            "entries": [[ri, ci, v] for (ri, ci), v in sorted(self.entries.items())],
            "semisimple": self.semisimple,
        }

    @staticmethod
    def from_json(data: dict) -> "DecompTable":
        params = data.get("params") or {}
        return DecompTable(
            data["s"], data["m"], data["rows"], data["cols"], data["entries"],
            semisimple=data.get("semisimple", False),
            eps_power=params.get("eps_power"),
        )

    def __repr__(self):
        return (
            f"DecompTable(s={self.s}, m={self.m}, eps_power={self.eps_power}, "
            f"{len(self.rows)}x{len(self.cols)})"
        )


def semisimple_table(s: int, m: int) -> DecompTable:
    """The identity table over all s-component multipartitions of m."""
    labels = [mp.comps for mp in enumerate_all(1, s, m)]
    entries = [[i, i, 1] for i in range(len(labels))]
    return DecompTable(s, m, labels, labels, entries, semisimple=True)


def _find_table(tables, s: int, m: int, t: int, p: int) -> DecompTable:
    """The table for the component algebra of size m at twist t (mod p)."""
    for tab in tables:
        if tab.s != s or tab.m != m:
            continue
        if tab.eps_power is None or (tab.eps_power - t) % p == 0:
            return tab
    raise InputDataError(
        f"no table for s={s}, m={m} at twist {t % p} (mod {p})"
    )


# --- block products -------------------------------------------------------


def d_product(la: Multipartition, mu: Multipartition, m: int, tables) -> int:
    """Product of the first m blockwise decomposition numbers.

    Both arguments must repeat with period m, so their first m blocks
    determine them; block i is looked up in the table at twist i.
    """
    if (la.p, la.d) != (mu.p, mu.d):
        raise ValueError("multipartition context mismatch")
    if la.composition() != mu.composition():
        raise ValueError("compositions differ; the pair has no block product")
    # the shifts fixing a multipartition are the multiples of its orbit order
    if m % la.orbit_order()[0] or m % mu.orbit_order()[0]:
        raise ValueError(f"arguments are not fixed by the block shift by {m}")
    b = la.composition()
    out = 1
    for i in range(1, m + 1):
        tab = _find_table(tables, la.d, b[i - 1], i, la.p)
        out *= tab._entry(la.block(i), mu.block(i))
    return out


def orbit_sum_bound(la: Multipartition, mu: Multipartition, tables) -> int:
    """Sum over the shift orbit of mu of full blockwise products with la.

    Every multiplicity [S^la_i : D^mu_j] is bounded by this sum, so a
    zero value certifies that the whole pair contributes nothing.
    """
    if (la.p, la.d) != (mu.p, mu.d):
        raise ValueError("multipartition context mismatch")
    total = 0
    for k in range(la.p):
        muk = mu.shift(k)
        if muk.composition() != la.composition():
            continue
        total += d_product(la, muk, la.p, tables)
    return total


# --- cyclic-twist system --------------------------------------------------


# one entry per order p of the twist solves run without a field: 3
# (p = 2, 3, 4) after a benchmark decomp pass and the desk fixtures.
# Without it decomp's wall_s, p50 and p90 were 1.1-1.5% worse (4 pairs)
DEFAULT_POINT_CACHE_SIZE = 8


@lru_cache(maxsize=DEFAULT_POINT_CACHE_SIZE, typed=True)
def _default_point(p: int) -> SpecPoint:
    return SpecPoint(p, p, 1, (1,))


def _field_of(la: Multipartition, field):
    """The field the g values of la's pairs are read in.  With none given
    a g ratio is a rational, or a CycRat of order dividing p, and the same
    constant at every point, so any point of conductor p holds it; that
    point is built once per p (`_default_point`, LRU,
    DEFAULT_POINT_CACHE_SIZE entries), since a point never changes."""
    if field is None:
        return _default_point(la.p)
    if field.p != la.p:
        raise ValueError(f"field has eps of order {field.p}, not {la.p}")
    return field


def _as_fraction(field, value) -> Fraction:
    """The rational constant a solved value of the field must be."""
    out = field.rational(value)
    if out is None:
        raise NonConstantRatioError(
            "solved value is not a rational constant; the g ratio is "
            "inconsistent with the tables at these parameters"
        )
    return out


def _inverse_dft(field, l: int, column) -> list:
    """Solve V(l) x = column in the field, in closed form.

    V(l), with (a, b) entry eps^((a-1)*b*m) and m = p/l, is the character
    table of Z/l in omega = eps^m, so x_c = (1/l) sum_t omega^(-t*c) column_t.
    """
    m = field.p // l
    omega = [field.eps_pow(k * m) for k in range(l)]
    inv_l = field.scalar(Fraction(1, l))
    out = []
    for c in range(1, l + 1):
        acc = column[0]
        for t in range(1, l):
            acc = acc + omega[(-t * c) % l] * column[t]
        out.append(acc * inv_l)
    return out


def _twist_column(field, l: int, ratio, d_val: int,
                  multiplier: int = 1) -> list:
    """Entries multiplier * ratio^t * d^gcd(l,t) for t = 0..l-1, with the
    ratio already a value of the field."""
    return [
        (ratio ** t) * field.scalar(multiplier * d_val ** math.gcd(l, t))
        for t in range(l)
    ]


# --- split results --------------------------------------------------------


class SplitResult(NamedTuple):
    """The l twist multiplicities of a pair with equal splitting number."""

    la: Multipartition
    mu: Multipartition
    split: int
    values: tuple
    provenance: str


class ClassSums(NamedTuple):
    """Residue-class sums of twist multiplicities when only those are pinned."""

    la: Multipartition
    mu: Multipartition
    split: int
    period: int
    sums: tuple
    provenance: str = "oracle"


def _check_counts(values, what: str) -> tuple:
    out = []
    for v in values:
        if v.denominator != 1 or v < 0:
            raise InputDataError(
                f"{what} {v} is not a nonnegative integer; input data inconsistent"
            )
        out.append(v)
    return tuple(out)


def _twist_slot(i: int, j: int, p_la: int, p_mu: int) -> int:
    """Position c - 1 of [S^la_i : D^mu_j] among the twist values of its
    pair, for j - i = c modulo gcd(p_la, p_mu)."""
    if not (1 <= i <= p_la and 1 <= j <= p_mu):
        raise ValueError(f"summand labels out of range: i={i}, j={j}")
    return (j - i - 1) % math.gcd(p_la, p_mu)


def split_by_formula(la: Multipartition, mu: Multipartition, tables,
                     g_ratio, field=None) -> SplitResult:
    """All l twist multiplicities of a splittable pair, in closed form.

    g_ratio is a value of the field, or with no field a rational constant
    (_field_of).  Each multiplicity must solve to a nonnegative integer:
    NonConstantRatioError for a value that is no rational constant,
    InputDataError for any other.
    """
    _, p_la = la.orbit_order()
    _, p_mu = mu.orbit_order()
    if p_la != p_mu:
        raise NonSplittableError(
            f"splitting numbers differ: p_la = {p_la}, p_mu = {p_mu}"
        )
    l = p_la
    d_val = d_product(la, mu, la.p // l, tables)
    if l == 1:
        values = [Fraction(d_val)]
    else:
        field = _field_of(la, field)
        column = _twist_column(field, l, field.scalar(g_ratio), d_val)
        values = [_as_fraction(field, v)
                  for v in _inverse_dft(field, l, column)]
    return SplitResult(la, mu, l, _check_counts(values, "multiplicity"),
                       "formula")


def splittable_number(la: Multipartition, mu: Multipartition, i: int, j: int,
                      tables, g_ratio, field=None) -> Fraction:
    """The multiplicity [S^la_i : D^mu_j] for a pair with p_la = p_mu,
    read off split_by_formula."""
    return cyclic_reindex(split_by_formula(la, mu, tables, g_ratio, field),
                          i, j)


def relations_oracle(la: Multipartition, mu: Multipartition, tables, g_powers,
                     field=None):
    """Solve the cyclic-twist linear system by generic elimination.

    g_powers is the pair (g_la, g_mu), values of the field as g_ratio is
    in split_by_formula.  With p_mu equal to l = p_la the l x l system
    determines every twist multiplicity and a SplitResult is returned;
    with p_mu a proper multiple of l only the sums over residue classes
    mod l are pinned and those come back as ClassSums.
    """
    o_la, p_la = la.orbit_order()
    _, p_mu = mu.orbit_order()
    l = p_la
    if p_mu % l:
        raise ValueError(
            f"mu is not symmetric enough: p_mu = {p_mu} is no multiple of l = {l}"
        )
    period_ratio = p_mu // l
    d_val = d_product(la, mu, o_la, tables)
    if l == 1:
        sums = (Fraction(period_ratio * d_val),)
    else:
        field = _field_of(la, field)
        ratio = (field.scalar(g_powers[0])
                 / field.scalar(g_powers[1]) ** period_ratio)
        column = _twist_column(field, l, ratio, d_val, multiplier=period_ratio)
        # V(l), solved by elimination to stay independent of _inverse_dft
        omega = [field.eps_pow(k * o_la) for k in range(l)]
        rows = [[omega[a * b % l] for b in range(1, l + 1)] for a in range(l)]
        sums = tuple(_as_fraction(field, v) for v in mat_solve(rows, column))
    if p_mu == l:
        return SplitResult(la, mu, l, _check_counts(sums, "multiplicity"),
                           "oracle")
    return ClassSums(la, mu, l, p_mu, _check_counts(sums, "class sum"))


def cyclic_reindex(result: SplitResult, i: int, j: int) -> Fraction:
    """[S^la_i : D^mu_j] read off a SplitResult; only j - i matters."""
    return result.values[_twist_slot(i, j, result.split, result.split)]


# --- matrix assembly ------------------------------------------------------


def _normalized_reps(items) -> list:
    """One label per shift class, aligned to a common composition.

    Within one composition class every representative is shifted to
    the least composition in the orbit, so block pairings across
    representatives line up; ties inside a class break by sort key.
    """
    groups = {}
    for la in items:
        b = la.composition()
        bstar = min(b[k:] + b[:k] for k in range(len(b)))
        groups.setdefault(bstar, []).append(la)
    reps = []
    for bstar, members in groups.items():
        fixed = [la for la in members if la.composition() == bstar]
        reps.extend(class_reps(fixed, bstar))
    reps.sort(key=Multipartition.sort_key, reverse=True)
    return reps


class _AssemblyPlan(NamedTuple):
    """What an assembly of one cell computes without the tables or the field.

    rows and cols are the (la, i) and (mu, j) labels.  diagonal holds the
    positions (ri, ci) of the unit entries, those of the pairs la == mu
    with i == j.  pairs lists, in visit order, every other pair of
    representatives of equal composition where la dominates mu, as
    (la, mu, p_la, p_mu, cells) with cells the ((ri, ci), twist slot) of
    each (i, j).  An assembly writes entries at these positions only, so
    its matrix is unitriangular by construction: every entry sits where
    the row label dominates the column label, and every column (mu, j)
    has its unit at row (mu, j), since the labels are closed under the
    shift and rows and columns keep the same member of each shift class.
    """

    rows: tuple
    cols: tuple
    diagonal: tuple
    pairs: tuple


# one entry per assembled (p, d, n) cell and tuple of simple labels,
# counted by cache_info(): 10 after a benchmark decomp pass, whose ten
# cells are each assembled six or twelve times over other tables and
# points, and 8 after the desk fixtures; the ten plans of a pass hold
# about 0.23 MB (tracemalloc)
PLAN_CACHE_SIZE = 32


@lru_cache(maxsize=PLAN_CACHE_SIZE, typed=True)
def _assembly_plan(p: int, d: int, n: int, klesh: tuple) -> _AssemblyPlan:
    """The plan of assembling the (p*d)-multipartitions of n against the
    simple labels klesh, which are checked here, once per memo key: a
    label of another context raises ValueError, and duplicate labels, a
    label of another size or labels not closed under the block shift
    raise InputDataError.  A raising call leaves nothing in the memo."""
    if any((mu.p, mu.d) != (p, d) for mu in klesh):
        raise ValueError("multipartition context mismatch")
    pool = set(klesh)
    if len(pool) != len(klesh):
        raise InputDataError("duplicate simple label")
    for mu in klesh:
        if mu.size != n:
            raise InputDataError(f"simple label {mu!r} has size {mu.size} != {n}")
    if not all(mu.shift(1) in pool for mu in pool):
        raise InputDataError("simple labels are not closed under block shift")
    row_reps = _normalized_reps(enumerate_all(p, d, n))
    col_reps = _normalized_reps(klesh)
    rows = tuple((la, i) for la in row_reps
                 for i in range(1, la.orbit_order()[1] + 1))
    cols = tuple((mu, j) for mu in col_reps
                 for j in range(1, mu.orbit_order()[1] + 1))
    row_pos = {lab: k for k, lab in enumerate(rows)}
    col_pos = {lab: k for k, lab in enumerate(cols)}

    cols_by_composition = {}
    for mu in col_reps:
        cols_by_composition.setdefault(mu.composition(), []).append(mu)
    diagonal = []
    pairs = []
    for la in row_reps:
        for mu in cols_by_composition.get(la.composition(), ()):
            _, p_la = la.orbit_order()
            _, p_mu = mu.orbit_order()
            if la == mu:
                diagonal.extend((row_pos[la, i], col_pos[mu, i])
                                for i in range(1, p_la + 1))
            elif la.dominates(mu):
                cells = tuple(((row_pos[la, i], col_pos[mu, j]),
                               _twist_slot(i, j, p_la, p_mu))
                              for i in range(1, p_la + 1)
                              for j in range(1, p_mu + 1))
                pairs.append((la, mu, p_la, p_mu, cells))
    return _AssemblyPlan(rows, cols, tuple(diagonal), tuple(pairs))


def assemble_matrix(r: int, p: int, n: int, tables, klesh_labels,
                    point=None) -> dict:
    """The labelled decomposition matrix built from the input tables.

    Rows run over (la class representative, i = 1..p_la) for all la of
    size n, columns over (mu, j) for the supplied simple labels, both
    sorted most dominant first.  Only pairs of representatives with equal
    composition can have a nonzero entry, and of those only the ones
    where la dominates mu, so only those are visited, each row against
    its columns in column order.  Splittable entries are computed by the
    closed-form twist solve, pairs whose orbit sum vanishes are zero, and
    the rest become named unknowns; when the twist relations apply their
    residue-class sums are attached as integer linear forms.  g ratios
    are evaluated at the given specialization point, or symbolically when
    none is supplied.  Entries are exact integers; reduce_matrix takes
    them modulo a prime.

    Everything that reads neither the tables nor the field comes from one
    bounded memo keyed by (p, d, n) and the tuple of simple labels
    (`_assembly_plan`, LRU, PLAN_CACHE_SIZE entries): the checks on the
    simple labels, the row and column labels and positions, and the
    pairs to visit with the twist slot of each entry.  Each call computes
    the orbit sums, g ratios, twist solves and entries afresh, in plan
    order, and builds every list it returns anew.  Entries are written
    only where the plan puts them, which makes the matrix unitriangular
    (_AssemblyPlan).
    """
    if p < 1 or r % p:
        raise ValueError(f"p must divide r, got r={r}, p={p}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    d = r // p
    field = point if point is not None else GenericField(p, d)

    plan = _assembly_plan(p, d, n, tuple(klesh_labels))
    rows, cols = plan.rows, plan.cols

    entries = dict.fromkeys(plan.diagonal, 1)
    unknowns = []
    g_cache = {}

    def g_value(shape):
        if shape not in g_cache:
            g_cache[shape] = g_lambda(shape, shape.composition(), field)
        return g_cache[shape]

    for la, mu, p_la, p_mu, cells in plan.pairs:
        if orbit_sum_bound(la, mu, tables) == 0:
            continue
        if p_la == p_mu:
            # the twist solve reads no g ratio at split 1
            ratio = 1 if p_la == 1 else g_value(la) / g_value(mu)
            values = split_by_formula(la, mu, tables, ratio, field).values
            for pos, slot in cells:
                v = values[slot]
                if v:
                    entries[pos] = int(v)
            continue
        # Not splittable: entries depend only on (j - i) mod the
        # common period and stay symbolic; the twist relations pin
        # residue-class sums when mu is symmetric enough.
        k = len(unknowns)
        names = [f"u{k}.{c}"
                 for c in range(1, math.gcd(p_la, p_mu) + 1)]
        relations = []
        twist_names = []
        if p_mu % p_la == 0:
            try:
                sums = relations_oracle(la, mu, tables,
                                        (g_value(la), g_value(mu)), field)
            except NonConstantRatioError:
                sums = None
            if sums is not None:
                twist_names = [f"d{k}.{j}" for j in range(1, p_mu + 1)]
                for c in range(1, p_la + 1):
                    terms = [[1, twist_names[j - 1]]
                             for j in range(1, p_mu + 1)
                             if j % p_la == c % p_la]
                    relations.append({"terms": terms,
                                      "rhs": int(sums.sums[c - 1])})
        for pos, slot in cells:
            entries[pos] = {"unknown": names[slot]}
        unknowns.append({
            "index": k,
            "lambda": la.to_json(),
            "mu": mu.to_json(),
            "split": p_la,
            "period": p_mu,
            "entries": names,
            "twist_unknowns": twist_names,
            "relations": relations,
        })

    out = {
        "r": r,
        "p": p,
        "n": n,
        "char": None,
        "rows": [[la.to_json(), i] for la, i in rows],
        "cols": [[mu.to_json(), j] for mu, j in cols],
        "entries": [
            [ri, ci, v] for (ri, ci), v in sorted(
                entries.items(), key=lambda kv: kv[0]
            )
        ],
        "unknowns": unknowns,
    }
    out["report"] = {
        "rows": len(rows),
        "cols": len(cols),
        "unitriangular": True,
        "identity": _is_identity(out),
        "unknown_pairs": len(unknowns),
        "char": None,
    }
    return out


def _is_identity(matrix: dict) -> bool:
    """Whether an assembled matrix is the identity, with no unknowns."""
    rows, cols, entries = matrix["rows"], matrix["cols"], matrix["entries"]
    return (len(rows) == len(cols)
            and not matrix["unknowns"]
            and all(rows[ri] == cols[ci] and v == 1 for ri, ci, v in entries)
            and len(entries) == len(cols))


_MATRIX_KEYS = frozenset(("r", "p", "n", "char", "rows", "cols", "entries",
                          "unknowns", "report"))


def _integral(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputDataError(f"{where} is not integral: {value!r}")
    return value


def reduce_matrix(data: dict, char: int) -> dict:
    """The assembled matrix data, with the keys assemble_matrix writes,
    modulo char: integer entries and relation values become residues, a
    zero residue leaves the sparse entry list, unknowns pass through, and
    report.identity is recomputed."""
    if char < 2:
        raise ValueError(f"characteristic must be at least 2, got {char}")
    missing = sorted(_MATRIX_KEYS.difference(data))
    if missing:
        raise ValueError(f"not an assembled matrix, missing {missing}")
    entries = []
    n_rows, n_cols = len(data["rows"]), len(data["cols"])
    for ri, ci, v in data["entries"]:
        if not (0 <= ri < n_rows and 0 <= ci < n_cols):
            raise InputDataError(f"entry index out of range: {(ri, ci)}")
        if not isinstance(v, dict):
            v = _integral(v, f"entry at ({ri}, {ci})") % char
            if not v:
                continue
        entries.append([ri, ci, v])
    unknowns = [{**u, "relations": [
        {**rel, "rhs": _integral(rel["rhs"], "relation value") % char}
        for rel in u["relations"]]} for u in data["unknowns"]]
    out = {**data, "char": char, "entries": entries, "unknowns": unknowns}
    out["report"] = {**data["report"], "char": char,
                     "identity": _is_identity(out)}
    return out


# --- dimension report -----------------------------------------------------


class DimReport(NamedTuple):
    dim_specht: int
    p_lambda: int
    dim_summand: int


def dim_report(la: Multipartition) -> DimReport:
    """Standard-module dimension and its split among the p_la summands."""
    dim = count_std(la)
    # with n = 0 there is no T_0, so H(r,p,0) = H(r,1,0) and nothing splits
    p_la = la.orbit_order()[1] if la.size else 1
    if dim % p_la:
        raise RuntimeError(
            f"internal: {dim} standard tableaux do not split into {p_la} parts"
        )
    return DimReport(dim, p_la, dim // p_la)
