"""Distinguished algebra elements as evaluable words, and their identities.

The central object is the block shuffle element v_b attached to a
composition b of n: a product of Jucys-Murphy ladders (runs of factors
L_k - eps^s Q_i, each one diagonal ``ladder`` token) and block
transposition elements T_{a,b}.  Everything here manipulates
token words, never structure constants; equality of elements is decided
through the faithful seminormal matrices, and the canonical symmetrizing
trace is evaluated as the weighted sum of module characters with Schur
element weights.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import permutations as _perm_tuples
from itertools import product as _cartesian
from operator import attrgetter
from typing import NamedTuple

from .combin import (
    Multipartition,
    check_composition,
    comp_stats,
    enumerate_all,
    partial_sum,
    reduced_word,
    wab_perm,
    wb_perm,
)
from .matrices import rows_mul, rows_rank, rows_scale_cols, rows_trace
from .scalars import schur_element
from .seminormal import (
    element_equal,
    eval_word,
    evaluation_units,
    mode_fields,
)
from .tableau import count_std


class VerificationError(Exception):
    """A structural identity the algebra guarantees failed to check out."""


# ---------------------------------------------------------------------------
# LL ladders and transposition words

def superscripts(i: int, j: int, p: int) -> list:
    """The twist exponents of an LL^(i..j) ladder, reduced mod p.

    For i <= j this is i..j; past the end of the cycle it wraps around
    as 1..j followed by i..p, never containing the missing residue.  A
    window with j < i holds no twist, such as the p - 1 twists other than
    t, t+1..t+p-1, at p = 1.
    """
    if j < i:
        return []
    i = (i - 1) % p + 1
    j = (j - 1) % p + 1
    if i <= j:
        return list(range(i, j + 1))
    return list(range(1, j + 1)) + list(range(i, p + 1))


def ll_word(d: int, s: int, lo: int, hi: int) -> list:
    """Product of (L_k - eps^s Q_i) over k = lo..hi and i = 1..d."""
    if lo < 1:
        raise ValueError(f"L index out of range: {lo}")
    return [("ladder", k, s, i)
            for k in range(lo, hi + 1) for i in range(1, d + 1)]


def ll_range_word(p: int, d: int, i: int, j: int, lo: int, hi: int) -> list:
    """LL ladders for every superscript in the i..j window."""
    out = []
    for s in superscripts(i, j, p):
        out.extend(ll_word(d, s, lo, hi))
    return out


def t_word(perm: tuple) -> list:
    return [("T", i) for i in reduced_word(perm)]


def t_ab_word(a: int, b: int) -> list:
    """The block swap T_{a,b}, through a reduced word of w_{a,b}."""
    return t_word(wab_perm(a, b))


def tb_word(b) -> list:
    """The full shuffle T_b moving every block past all later ones."""
    return t_word(wb_perm(b))


# ---------------------------------------------------------------------------
# the shuffle elements v_b and their rewritings

def _match_context(field, b) -> tuple:
    b = check_composition(b)
    if len(b) != field.p:
        raise ValueError(
            f"composition has {len(b)} blocks but the field has p={field.p}"
        )
    return b


def vb_word(b, d: int) -> list:
    """The shuffle element v_b, with p = len(b).

    Ladder and swap factors interleave from the last block down to the
    second, then the plain ladders close the word in increasing twist
    order.
    """
    b = check_composition(b)
    p = len(b)
    out = []
    for k in range(p - 1, 0, -1):
        out.extend(ll_range_word(p, d, 1, k, 1, b[k]))
        out.extend(t_ab_word(b[k], partial_sum(b, 1, k)))
    for k in range(2, p + 1):
        out.extend(ll_word(d, k, 1, partial_sum(b, 1, k - 1)))
    return out


def vb_pivot_word(b, d: int, j: int) -> list:
    """Rewriting of v_b pivoted at block j; the same element for every j.

    Four runs of factors, each read with decreasing index: mixed
    ladder-swap factors above the pivot, plain ladders below and above
    it, and swap-ladder factors back down to block two.
    """
    b = check_composition(b)
    p = len(b)
    if not 1 <= j <= p:
        raise ValueError(f"pivot out of range: {j}")
    out = []
    for k in range(p - 1, j - 1, -1):
        out.extend(ll_range_word(p, d, j, k, 1, b[k]))
        out.extend(t_ab_word(b[k], partial_sum(b, j, k)))
    for i in range(j - 1, 0, -1):
        out.extend(ll_word(d, i, 1, partial_sum(b, i + 1, p)))
    for k in range(p, j, -1):
        out.extend(ll_word(d, k, 1, partial_sum(b, j, k - 1)))
    for i in range(j, 1, -1):
        out.extend(t_ab_word(partial_sum(b, i, p), b[i - 2]))
        out.extend(ll_range_word(p, d, i, p, 1, b[i - 2]))
    return out


# ---------------------------------------------------------------------------
# the one-step shift factors Y_t

def shift_factor_word(b, d: int, t: int) -> list:
    """Y_t: the ladder over every twist except t on block t, then the
    swap moving that block past the rest.  Indices are cyclic in t."""
    b = check_composition(b)
    p, n = len(b), sum(b)
    bt = b[(t - 1) % p]
    out = ll_range_word(p, d, t + 1, t + p - 1, 1, bt)
    out.extend(t_ab_word(bt, n - bt))
    return out


# ---------------------------------------------------------------------------
# the canonical trace

# keyed by sampled points, so bounded; no measured traffic near it: 0
# entries after a pass of each benchmark workload, 7 after the desk
# fixtures.  Without it `verify comparison --b [1,1,1] --d 2` went from
# 0.95 to 1.06 s symbolic, 0.39 to 0.61 s random --seed 1 (best of 3)
SCHUR_INVERSES_CACHE_SIZE = 1024


@lru_cache(maxsize=SCHUR_INVERSES_CACHE_SIZE)
def _schur_inverses(field, n: int) -> tuple:
    r = field.p * field.d
    return tuple(field.one / schur_element(r, shape, field)
                 for shape in enumerate_all(field.p, field.d, n))


def trace(n: int, word, field):
    """The symmetrizing trace: characters weighted by 1/Schur element.

    The word is evaluated once on each evaluation unit of the field
    (`seminormal.evaluation_units`), and the character of each module
    is the trace of its block of that value.

    On basis monomials this is the coefficient-of-identity form, so it
    vanishes on every monomial with a nonzero L part or a nontrivial
    permutation part.  The field must be semisimple for the expansion
    to exist; a vanishing Schur element raises ZeroDivisionError.
    """
    weights = iter(_schur_inverses(field, n))
    total = field.zero
    for rep in evaluation_units(field.p, field.d, n, field):
        value = eval_word(rep, word)
        for _, lo, hi in rep.blocks:
            total = total + rows_trace(value, field.zero, lo, hi) \
                * next(weights)
    return total


class TraceCheck(NamedTuple):
    value: object
    matched: bool


def vbtb_trace_closed(b, field):
    """Closed monomial value of the trace of v_b T_b."""
    b = _match_context(field, b)
    p, d, n = field.p, field.d, sum(b)
    ab, lwb = comp_stats(b)
    value = field.scalar((-1) ** (d * n * (p - 1))) * field.q_power(lwb)
    value = value * field.eps_pow(d * n * (p * (p - 1) // 2) - d * ab)
    for i in range(1, d + 1):
        value = value * field.Q_power(i, n * (p - 1))
    return value


def trace_vbtb(b, field) -> TraceCheck:
    """The closed trace of v_b T_b, cross-checked against the character
    expansion of the actual word."""
    b = _match_context(field, b)
    closed = vbtb_trace_closed(b, field)
    word = vb_word(b, field.d) + tb_word(b)
    expanded = trace(sum(b), word, field)
    return TraceCheck(closed, closed == expanded)


# ---------------------------------------------------------------------------
# eigenvalue extraction for the scalars f

def flam_eigen_oracle(b, field) -> dict:
    """The scalar of each module with matching block sizes, read off the
    proportionality of v_b T_b against v_b in the seminormal model.

    Left multiplication by v_b T_b is a module endomorphism of the right
    module generated by v_b, so composing its matrix on the left of the
    matrix of v_b scales the latter by f(lam) whenever the block sizes
    of lam equal b; v_b acts as zero on every other shape.  The scalar
    is read off the first nonzero entry as y / x, exact over the generic
    field even by a sum, and the full proportionality, at every entry,
    the rank, and nonvanishing are all re-checked.
    Returns a map shape -> scalar over the matching shapes.
    """
    b = _match_context(field, b)
    vb = vb_word(b, field.d)
    tb = tb_word(b)
    found = {}
    for rep in evaluation_units(field.p, field.d, sum(b), field):
        vmat = eval_word(rep, vb)
        own = []
        for shape, lo, hi in rep.blocks:
            if shape.composition() == b:
                own.append((shape, lo, hi))
            elif any(vmat[lo:hi]):
                raise VerificationError(
                    f"v_b does not annihilate the module of shape {shape!r}"
                )
        if not own:
            continue
        prod = rows_mul(rows_mul(vmat, eval_word(rep, tb)), vmat)
        # one on the blocks v_b annihilates, so no entry is dropped below
        scales = [field.one] * rep.dim
        for shape, lo, hi in own:
            a = next((a for a in range(lo, hi) if vmat[a]), None)
            if a is None:
                raise VerificationError(
                    f"v_b vanishes on its own block {shape!r}")
            j, x = vmat[a][0]
            y = dict(prod[a]).get(j, field.zero)
            try:
                scalar = y / x
            except ArithmeticError:
                raise VerificationError(
                    f"v_b T_b is not proportional to v_b at shape {shape!r}"
                ) from None
            if not scalar:
                raise VerificationError(f"zero eigenvalue at shape {shape!r}")
            expected = 1
            for t in range(1, field.p + 1):
                expected *= count_std(
                    Multipartition(1, field.d, shape.block(t)))
            if rows_rank(vmat[lo:hi], field.zero) != expected:
                raise VerificationError(
                    f"rank of v_b is off at shape {shape!r}")
            scales[lo:hi] = [scalar] * (hi - lo)
            found[shape] = scalar
        # the whole value: every position, those where v_b is zero and
        # those off the blocks included
        expect = rows_scale_cols(vmat, scales)
        if prod != expect:
            a = next(a for a, row in enumerate(prod) if row != expect[a])
            raise VerificationError(
                f"v_b T_b is not proportional to v_b at shape "
                f"{rep.shape_at(a)!r}")
    return found


# ---------------------------------------------------------------------------
# identity tables and their runner

def tensor_basis(d: int, b) -> list:
    """Basis monomials of the block tensor algebra: per block an
    exponent vector below d and a permutation of the block."""
    b = check_composition(b)
    blocks = []
    for bt in b:
        exps = list(_cartesian(range(d), repeat=bt))
        perms = list(_perm_tuples(range(1, bt + 1)))
        blocks.append([(e, x) for e in exps for x in perms])
    return [tuple(c) for c in _cartesian(*blocks)]


def is_identity_monomial(h) -> bool:
    return all(not any(e) and x == tuple(range(1, len(x) + 1))
               for e, x in h)


def theta_word(h, b) -> list:
    """Index-shift embedding of a tensor basis monomial: every L factor
    first in block order, then the block permutations, each shifted by
    the sizes of the earlier blocks.  Linear on monomials only."""
    b = check_composition(b)
    out = []
    off = 0
    for (exps, _), bt in zip(h, b):
        for k, a in enumerate(exps, start=1):
            out.extend([("L", off + k)] * a)
        off += bt
    off = 0
    for (_, x), bt in zip(h, b):
        out.extend(("T", off + i) for i in reduced_word(x))
        off += bt
    return out


def identities(kind: str, b, d: int) -> list:
    """The (name, lhs word, rhs) rows of one verdict on v_b: per pivot j
    (``changing``, named ``"j"``) v_b against its pivot-j rewriting; the
    shift cycle Y_p ... Y_1 against v_b T_b (``pleftmult``); and per
    tensor basis monomial h (``comparison``, named by each block's
    exponents and permutation) the trace of v_b theta(h) T_b, whose rhs
    is a function of the field: the product trace of h (1 at the
    identity, else 0) times the closed trace of v_b T_b."""
    b = check_composition(b)
    vb = vb_word(b, d)
    if kind == "changing":
        return [(str(j), vb, vb_pivot_word(b, d, j))
                for j in range(1, len(b) + 1)]
    if kind == "pleftmult":
        cycle = [item for t in range(len(b), 0, -1)
                 for item in shift_factor_word(b, d, t)]
        return [("shift cycle", cycle, vb + tb_word(b))]
    if kind == "comparison":
        tb = tb_word(b)
        return [(" ".join(f"{e}{x}" for e, x in h),
                 vb + theta_word(h, b) + tb,
                 partial(vbtb_trace_closed, b) if is_identity_monomial(h)
                 else attrgetter("zero"))
                for h in tensor_basis(d, b)]
    raise ValueError(f"unknown identity kind {kind!r}")


def check_identities(p, d, n, table, points=None) -> list:
    """The names of the failing rows of an `identities` table, in table
    order, over each field of `points` (a `mode_fields` list; None: its
    auto rule): a word rhs as the same element (`element_equal`), a
    callable one as the trace of lhs (`trace`).  The fields are the outer
    loop, so each field's units are built once however many points the
    rep memo holds, and a row that failed is not checked again."""
    failed = [False] * len(table)
    for field in mode_fields(p, d, n, points=points):
        for k, (_, lhs, rhs) in enumerate(table):
            if failed[k]:
                continue
            failed[k] = (trace(n, lhs, field) != rhs(field) if callable(rhs)
                         else not element_equal(p, d, n, lhs, rhs, [field]))
    return [row[0] for row, bad in zip(table, failed) if bad]


def verify_changing(b, d: int, j: int, points=None) -> bool:
    """The pivot-j rewriting of v_b is v_b, over `points`."""
    row = (str(j), vb_word(b, d), vb_pivot_word(b, d, j))
    return not check_identities(len(b), d, sum(b), [row], points)


def verify_pleftmult(b, d: int, points=None) -> bool:
    """The shift cycle Y_p ... Y_1 is v_b T_b, over `points`."""
    table = identities("pleftmult", b, d)
    return not check_identities(len(b), d, sum(b), table, points)


def verify_comparison(b, d: int, points=None) -> bool:
    """The trace comparison over the whole tensor basis, over `points`."""
    table = identities("comparison", b, d)
    return not check_identities(len(b), d, sum(b), table, points)
