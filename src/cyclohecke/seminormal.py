"""Faithful seminormal matrix models of the cyclotomic Hecke algebra.

Modules are right modules with the standard tableaux as basis, so a word
in the generators evaluates to the matrix product taken in the same
order.  T_0 is the diagonal of first contents; its cyclotomic relation
with parameters (eps Q_1, ..., eps^p Q_d) is what pins down the content
convention.
"""

from fractions import Fraction
from functools import lru_cache
from random import Random

from .combin import Multipartition, component_index, enumerate_all
from .exactnum import CycRat, RatFunc, generic_field, sample_point
from .matrices import (
    mat_add,
    mat_diag,
    mat_eq,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_mul_sparse,
    mat_scale,
    mat_scale_cols,
    mat_sparse_rows,
    mat_sub,
    mat_trace,
)
from .tableau import beta_coeff, content, count_std, enumerate_std


def cyclotomic_params(field) -> list:
    """The T_0 eigenvalue list (eps Q_1, ..., eps^p Q_d) in block order."""
    r = field.p * field.d
    return [
        field.eps_pow(pu) * field.Q(du)
        for pu, du in (component_index(u, field.p, field.d)
                       for u in range(1, r + 1))
    ]


class SeminormalRep:
    """Exact matrices for T_0..T_{n-1} and L_1..L_n on one Specht module."""

    def __init__(self, shape: Multipartition, field):
        if (shape.p, shape.d) != (field.p, field.d):
            raise ValueError("shape and field have different (p, d) context")
        self.shape = shape
        self.field = field
        self.basis = enumerate_std(shape)
        self.dim = len(self.basis)
        self.index = {s: a for a, s in enumerate(self.basis)}
        self.n = shape.size

        self.ldiag = [
            tuple(content(s, k, field) for s in self.basis)
            for k in range(1, self.n + 1)
        ]
        self.lmat = [mat_diag(diag) for diag in self.ldiag]

        self.tmat = {}
        if self.n:
            self.tmat[0] = self.lmat[0]
        for i in range(1, self.n):
            rows = []
            for a, s in enumerate(self.basis):
                row = [field.zero] * self.dim
                bc = beta_coeff(s, i, field)
                row[a] = bc
                t = s.swap(i)
                if t.is_standard():
                    row[self.index[t]] = field.one + bc
                rows.append(tuple(row))
            self.tmat[i] = tuple(rows)

        self._tinv = {}
        self._t0inv = None
        self._rows = {}

        # the recursion q^-1 T_k L_k T_k must reproduce the content diagonals
        qinv = field.q_power(-1)
        for k in range(1, self.n):
            recursed = mat_scale(qinv, mat_mul_sparse(
                mat_scale_cols(self.tmat[k], self.ldiag[k - 1]),
                self.t_rows(k)))
            if not mat_eq(recursed, self.lmat[k]):
                raise RuntimeError(
                    f"internal: L_{k + 1} recursion disagrees with contents "
                    f"on {shape!r}")

    def identity(self) -> tuple:
        return mat_identity(self.dim, self.field)

    def t_matrix(self, i: int) -> tuple:
        if not 0 <= i <= self.n - 1:
            raise ValueError(f"T_{i} out of range for n={self.n}")
        return self.tmat[i]

    def l_matrix(self, k: int) -> tuple:
        return mat_diag(self.l_diagonal(k))

    def l_diagonal(self, k: int) -> tuple:
        """The diagonal of L_k: the k-th contents of the basis tableaux."""
        if not 1 <= k <= self.n:
            raise ValueError(f"L_{k} out of range for n={self.n}")
        return self.ldiag[k - 1]

    def t0_inverse_diagonal(self) -> tuple:
        """The diagonal of T_0^-1 = L_1^-1: the inverted first contents."""
        if self._t0inv is None:
            self._t0inv = tuple(c.inverse() for c in self.l_diagonal(1))
        return self._t0inv

    def t_rows(self, i: int, inverse: bool = False) -> tuple:
        """T_i, or its inverse, as sparse rows (see matrices.mat_sparse_rows).

        For i >= 1 every row has at most two nonzero entries.
        """
        key = (i, inverse)
        rows = self._rows.get(key)
        if rows is None:
            dense = self.t_inverse(i) if inverse else self.t_matrix(i)
            rows = self._rows[key] = mat_sparse_rows(dense)
        return rows

    def t_inverse(self, i: int) -> tuple:
        if i in self._tinv:
            return self._tinv[i]
        if i == 0:
            out = mat_diag(self.t0_inverse_diagonal())
        else:
            # quadratic relation: T_i^-1 = q^-1 (T_i + (1 - q))
            field = self.field
            shifted = mat_add(
                self.t_matrix(i),
                mat_scale(field.one - field.q, self.identity()))
            out = mat_scale(field.q_power(-1), shifted)
        self._tinv[i] = out
        return out


# reps are keyed by sampled points, so the cache is bounded; one pass of
# the random-mode checks over a (p, d, n) grid touches a few hundred
REP_CACHE_SIZE = 1024


@lru_cache(maxsize=REP_CACHE_SIZE)
def _cached_rep(shape: Multipartition, field) -> SeminormalRep:
    return SeminormalRep(shape, field)


def build_rep(shape: Multipartition, field) -> SeminormalRep:
    """The seminormal model of the shape over the field, cached (LRU)."""
    return _cached_rep(shape, field)


def check_relations(rep: SeminormalRep) -> list:
    """All defining relations as matrix identities; returns the failures."""
    failures = []
    field, n = rep.field, rep.n
    if n == 0:
        return failures
    ident = rep.identity()
    T = rep.tmat

    acc = ident
    for rho in cyclotomic_params(field):
        acc = mat_mul(acc, mat_sub(T[0], mat_scale(rho, ident)))
    if not mat_is_zero(acc):
        failures.append("cyclotomic relation for T_0")

    for i in range(1, n):
        lhs = mat_mul(mat_sub(T[i], mat_scale(field.q, ident)),
                      mat_add(T[i], ident))
        if not mat_is_zero(lhs):
            failures.append(f"quadratic relation for T_{i}")

    if n >= 2:
        t0t1 = mat_mul(T[0], T[1])
        t1t0 = mat_mul(T[1], T[0])
        if not mat_eq(mat_mul(t0t1, t0t1), mat_mul(t1t0, t1t0)):
            failures.append("braid relation T_0T_1T_0T_1 = T_1T_0T_1T_0")

    for i in range(1, n - 1):
        lhs = mat_mul(T[i], mat_mul(T[i + 1], T[i]))
        rhs = mat_mul(T[i + 1], mat_mul(T[i], T[i + 1]))
        if not mat_eq(lhs, rhs):
            failures.append(f"braid relation at T_{i}, T_{i + 1}")

    for j in range(2, n):
        if not mat_eq(mat_mul(T[0], T[j]), mat_mul(T[j], T[0])):
            failures.append(f"commutation T_0 T_{j}")

    for i in range(1, n):
        for j in range(i + 2, n):
            if not mat_eq(mat_mul(T[i], T[j]), mat_mul(T[j], T[i])):
                failures.append(f"commutation T_{i} T_{j}")

    return failures


def _scalar_token(field, value):
    if isinstance(value, (RatFunc, CycRat)):
        if isinstance(value, CycRat) and not field.is_generic:
            return field.embed(value)
        if isinstance(value, CycRat):
            return field.scalar(value)
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(value, (int, Fraction)):
        return field.scalar(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 \
            and all(isinstance(x, int) for x in value):
        return field.scalar(Fraction(value[0], value[1]))
    raise TypeError(f"cannot read scalar token {value!r}")


def _times_diagonal(acc, diag) -> tuple:
    """acc times the diagonal matrix diag; acc None stands for the identity."""
    return mat_diag(diag) if acc is None else mat_scale_cols(acc, diag)


def eval_word(rep: SeminormalRep, word) -> tuple:
    """Evaluate a token word as the product of its factors, left to right.

    The tokens, and their cost on a module of dimension n:

    * ``("T", i)``, ``("Tinv", i)`` for i >= 1: the generator T_i or its
      inverse, kept as sparse rows with at most two nonzeros each and
      applied by a dense x sparse product, at most 2 n^2 multiplies.
    * ``("L", k)``: the Jucys-Murphy element L_k; ``("ladder", k, root)``:
      the ladder factor L_k - root; ``("scal", c)``: c times the identity;
      ``("T", 0)`` and ``("Tinv", 0)``.  All of these are diagonal.  A run
      of consecutive diagonal factors is multiplied into one pending
      diagonal, n multiplies per factor, which is applied to the product
      once, as a column scaling (at most n^2 multiplies, none for zero
      entries), when the next other factor comes or the word ends.
    * ``("sum", [w1, w2, ...])``: the sum of the words w1, w2, ..., each
      evaluated densely and summed, then applied by a dense product
      (n^3 multiplies at most).  The Young symmetrizers use it.

    An empty word is the identity.  The result is a dense matrix.
    """
    field = rep.field
    acc = diag = None
    for item in word:
        tag = item[0]
        if tag == "L":
            factor = rep.l_diagonal(item[1])
        elif tag == "ladder":
            root = _scalar_token(field, item[2])
            factor = [c - root for c in rep.l_diagonal(item[1])]
        elif tag == "scal":
            factor = [_scalar_token(field, item[1])] * rep.dim
        elif tag == "T" and item[1] == 0:
            factor = rep.l_diagonal(1)
        elif tag == "Tinv" and item[1] == 0:
            factor = rep.t0_inverse_diagonal()
        else:
            factor = None
        if factor is not None:
            diag = factor if diag is None else [
                x * y if x else x for x, y in zip(diag, factor)]
            continue
        if diag is not None:
            acc, diag = _times_diagonal(acc, diag), None
        if tag in ("T", "Tinv"):
            inverse = tag == "Tinv"
            if acc is None:
                acc = rep.t_inverse(item[1]) if inverse \
                    else rep.t_matrix(item[1])
            else:
                acc = mat_mul_sparse(acc, rep.t_rows(item[1], inverse))
        elif tag == "sum":
            m = None
            for sub in item[1]:
                part = eval_word(rep, sub)
                m = part if m is None else mat_add(m, part)
            if m is None:
                m = mat_scale(field.zero, rep.identity())
            acc = m if acc is None else mat_mul(acc, m)
        else:
            raise ValueError(f"unknown word token {tag!r}")
    if diag is not None:
        acc = _times_diagonal(acc, diag)
    return rep.identity() if acc is None else acc


def character(shape: Multipartition, word, field):
    """Trace of the word on the module labelled by the shape."""
    rep = build_rep(shape, field)
    return mat_trace(eval_word(rep, word))


def _resolve_word(word, field):
    return word(field) if callable(word) else word


def mode_fields(p, d, n, mode: str = "auto", points=None,
                trials: int = 3, rng=None) -> list:
    """Fields to check an identity over: explicit points, one generic
    field, or `trials` sampled separated semisimple points.

    The auto rule goes symbolic only while the direct sum of all modules
    stays small, since symbolic products in several variables explode.
    """
    if points is not None:
        return list(points)
    if mode == "auto":
        total = sum(count_std(s) ** 2 for s in enumerate_all(p, d, n))
        mode = "symbolic" if total <= 40 else "random"
    if mode == "symbolic":
        return [generic_field(p, d)]
    if mode == "random":
        rng = rng or Random(0)
        return [sample_point(p, d, n, rng) for _ in range(trials)]
    raise ValueError(f"unknown mode {mode!r}")


def element_equal(p, d, n, w1, w2, mode: str = "auto",
                  points=None, trials: int = 3, rng=None) -> bool:
    """Equality in the algebra via the direct sum of all modules.

    Symbolic mode is an exact proof; random mode checks the identity at
    `trials` separated semisimple specialization points.
    """
    shapes = enumerate_all(p, d, n)
    fields = mode_fields(p, d, n, mode, points, trials, rng)
    for field in fields:
        u1 = _resolve_word(w1, field)
        u2 = _resolve_word(w2, field)
        for shape in shapes:
            rep = build_rep(shape, field)
            if not mat_eq(eval_word(rep, u1), eval_word(rep, u2)):
                return False
    return True
