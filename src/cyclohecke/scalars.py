"""Schur elements and the scalars attached to block compositions.

Everything in this module is a closed formula.  The Schur element of a
multipartition is the hook-length product over pairs of components; its
block-wise analogue multiplies the d-component Schur elements of the
blocks, where the eps-twist of the block parameters cancels in every
parameter ratio.  The scalar f attached to (lam, b) is a Laurent
polynomial given by the cross-block part of the same hook product, and g
is the distinguished p_lam-th root of a root of unity times f, fixed by
choosing the trivial root.  The identities connecting these values to the
trace form and to the shift endomorphisms are exercised by the test suite
against the seminormal representations.

The Schur elements, f and g are products of pair factors (one component's
hook binomials against another's), all read from one memo bounded at
PAIR_CACHE_SIZE = 1024.  So the two sides of f * s_b = s * tr(v_b T_b)
share factors; the independent check is the test suite's reference,
which multiplies out every hook binomial as a rational function.

All exponents that are a priori rational are computed exactly and
checked integral before use.  The formulas only multiply, divide and
subtract one from the field's values, so over the generic field every
result is an ``exactnum.RatFunc`` closed form, a product of binomials
with no multiplied-out poly, and the identities between them are
decided on those factors; at a specialization point the same formulas
run in Q(zeta_N).  f and g have no denominator by construction: each
factor is a monomial or a pair factor, whose differences of two
monomials are closed forms with one numerator binomial at most.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .combin import (
    Multipartition,
    beta,
    check_composition,
    check_partition,
    comp_stats,
    component_index,
)
from .seminormal import mode_fields

__all__ = [
    "hook",
    "schur_element",
    "schur_element_b",
    "f_lambda_closed",
    "g_lambda",
    "verify_factorization",
]


def hook(la, mu, i: int, j: int) -> int:
    """Generalized hook length la_i - i + mu'_j - j + 1 for (i,j) in [la]."""
    la = check_partition(la)
    mu = check_partition(mu)
    if not (1 <= i <= len(la) and 1 <= j <= la[i - 1]):
        raise ValueError(f"node ({i},{j}) outside the diagram of {la}")
    mu_conj_j = sum(1 for part in mu if part >= j)
    return la[i - 1] - i + mu_conj_j - j + 1


# a pass of the symbolic or the points benchmark workload needs < 300 keys
PAIR_CACHE_SIZE = 1024


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _pair_factor(field, la: tuple, mu: tuple, e: int, ds: int, dt: int):
    """Product over the boxes (i,j) of la of eps^e q^hook(la,mu,i,j) Q_ds/Q_dt - 1."""
    twist = field.eps_pow(e)
    if ds != dt:
        twist = twist * field.Q_power(ds, 1) * field.Q_power(dt, -1)
    value = field.one
    for i, row in enumerate(la, start=1):
        for j in range(1, row + 1):
            value = value * (twist * field.q_power(hook(la, mu, i, j)) - field.one)
    return value


def _pair(field, comps, p: int, d: int, s: int, t: int, shift: int = 0):
    """Pair factor of components s, t of comps at eps^(p_s-p_t+shift), keyed mod p."""
    ps, ds = component_index(s, p, d)
    pt, dt = component_index(t, p, d)
    return _pair_factor(field, comps[s - 1], comps[t - 1],
                        (ps - pt + shift) % field.p, ds, dt)


def _filled_pairs(comps) -> list:
    """(s, t) for each component s with a box (else the factor is 1), each t."""
    r = range(1, len(comps) + 1)
    return [(s, t) for s in r if comps[s - 1] for t in r]


def _pooled(comps) -> tuple:
    """All parts of a tuple of partitions, sorted into one partition."""
    return tuple(sorted((x for c in comps for x in c), reverse=True))


def _schur_product(field, comps, p: int, d: int):
    """Hook product formula for the Schur element of a p*d-component tuple."""
    m = p * d
    n = sum(sum(c) for c in comps)
    value = field.q_power(-beta(_pooled(comps))) / (field.q - field.one) ** n
    if (n * (m - 1)) % 2:
        value = -value
    for s, t in _filled_pairs(comps):
        value = value * _pair(field, comps, p, d, s, t)
    return value


def schur_element(r: int, la: Multipartition, field):
    """Schur element of an r-parameter algebra via the hook product formula."""
    if la.r != r:
        raise ValueError(f"multipartition has {la.r} components, expected {r}")
    if (field.p, field.d) != (la.p, la.d):
        raise ValueError("field context mismatch")
    return _schur_product(field, la.comps, la.p, la.d)


def schur_element_b(la: Multipartition, b, field):
    """Product over blocks t of the d-component Schur elements at eps^t Q.

    The eps^t twist cancels in every parameter ratio Q_i/Q_j inside a
    block, so each factor is the plain d-parameter Schur element of the
    block.
    """
    b = check_composition(b)
    if la.composition() != b:
        raise ValueError(f"block sizes {la.composition()} do not match b = {b}")
    value = field.one
    for t in range(1, la.p + 1):
        value = value * _schur_product(field, la.block(t), 1, la.d)
    return value


class _Exponents(NamedTuple):
    orbit: int       # least block shift fixing la
    split: int       # p / orbit
    root_size: int   # size of the repeating slice
    gamma: int       # q-exponent of f
    gamma_root: int  # q-exponent of g
    eps_f: int       # eps-exponent of f
    eps_g: int       # eps-exponent of g


def _exponents(la: Multipartition, b) -> _Exponents:
    p, d, n = la.p, la.d, la.size
    ab, lwb = comp_stats(b)
    orbit, split = la.orbit_order()
    gamma = lwb - beta(_pooled(la.comps)) + sum(beta(_pooled(blk)) for blk in la.blocks())
    if gamma % split:
        raise RuntimeError("internal: q-exponent of g must be an integer")
    eps_f = d * n * (p * (p - 1) // 2) - d * ab
    eps_g = Fraction(n // split * (la.r * p - d * orbit), 2) - Fraction(d * ab, split)
    if eps_g.denominator != 1:
        raise RuntimeError("internal: eps-exponent of g must be an integer")
    return _Exponents(orbit, split, n // split, gamma, gamma // split, eps_f, int(eps_g))


def f_lambda_closed(la: Multipartition, b, field):
    """Closed Laurent-polynomial formula for the scalar f attached to (la, b)."""
    b = check_composition(b)
    if la.composition() != b:
        raise ValueError(f"block sizes {la.composition()} do not match b = {b}")
    p, d, n = la.p, la.d, la.size
    exps = _exponents(la, b)
    value = field.eps_pow(exps.eps_f) * field.q_power(exps.gamma)
    for c in range(1, d + 1):
        value = value * field.Q_power(c, n * (p - 1))
    for s, t in _filled_pairs(la.comps):
        if (s - 1) // d != (t - 1) // d:
            value = value * _pair(field, la.comps, p, d, s, t)
    return value


def g_lambda(la: Multipartition, b, field):
    """The distinguished split-th root of (a root of unity times) f.

    The hook product runs over the repeating slice of la with its own
    block structure, each factor further twisted by the powers of
    eps^orbit; the trivial root of unity is chosen to normalize the
    result.
    """
    b = check_composition(b)
    if la.composition() != b:
        raise ValueError(f"block sizes {la.composition()} do not match b = {b}")
    p, d = la.p, la.d
    exps = _exponents(la, b)
    root = la.orbit_slice()
    value = field.eps_pow(exps.eps_g) * field.q_power(exps.gamma_root)
    for c in range(1, d + 1):
        value = value * field.Q_power(c, exps.root_size * (p - 1))
    for s, t in _filled_pairs(root.comps):
        for a in range(exps.split):
            if a or (s - 1) // d != (t - 1) // d:
                value = value * _pair(field, root.comps, exps.orbit, d,
                                      s, t, a * exps.orbit)
    return value


def verify_factorization(la: Multipartition, b, points=None) -> bool:
    """Check g^split = eps^E f with E = d * orbit * root_size * C(split, 2)
    over `points` (None: the generic field).  A consistency check only: f
    and g share their `_pair_factor`s, so one wrong on every call passes."""
    b = check_composition(b)
    exps = _exponents(la, b)
    e_root = la.d * exps.orbit * exps.root_size * (exps.split * (exps.split - 1) // 2)

    def holds(field) -> bool:
        f = f_lambda_closed(la, b, field)
        g = g_lambda(la, b, field)
        return g ** exps.split == field.eps_pow(e_root) * f

    return all(holds(field) for field in mode_fields(
        la.p, la.d, max(la.size, 1), "symbolic", points))
