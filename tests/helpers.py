"""Builders and oracles that the tests check the package against.

Nothing in the package calls these.  They are independent ways to get
what the package computes (the permutation of a word, the number of
tuples of partitions, the value of a rational function at a point, the
generic field with every value multiplied out and its cross-multiplying
arithmetic, binomials multiplied out by generic products and by passes
over CycRat coefficients, the closed-form scalars multiplied out factor
by factor, dense matrix arithmetic and the inverse generators, a point
whose values are Fractions, the standardness of a filling and the swap
of two of its entries), the words of identities from the paper that no
command evaluates, sums of word values, and the decoder for the scalar
JSON the commands write.
"""

from fractions import Fraction
from itertools import permutations as _perm_tuples
from itertools import product as _cartesian

from cyclohecke.combin import (
    Multipartition,
    beta,
    component_index,
    partial_sum,
)
from cyclohecke.elements import (
    ll_range_word,
    ll_word,
    shift_factor_word,
    t_ab_word,
    t_word,
)
from cyclohecke.cli import scalar_to_json
from cyclohecke.exactnum import (
    CycRat,
    LaurentPoly,
    PoleError,
    RatFunc,
    SpecPoint,
    eps_pow,
    laurent_to_json,
)
from cyclohecke.scalars import _exponents, hook
from cyclohecke.seminormal import eval_word
from cyclohecke.tableau import StandardTableau


# ---------------------------------------------------------------------------
# permutations, composed left to right: (i)(uv) = ((i)u)v

def perm_mul(u: tuple, v: tuple) -> tuple:
    """Apply u first, then v."""
    if len(u) != len(v):
        raise ValueError("permutation size mismatch")
    return tuple(v[x - 1] for x in u)


def perm_inv(w: tuple) -> tuple:
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def inversions(w: tuple) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perm_from_word(n: int, word) -> tuple:
    img = list(range(1, n + 1))
    # right multiplication by s_i swaps the values i, i+1
    for i in word:
        if not 1 <= i < n:
            raise ValueError(f"generator index out of range: s_{i} in S_{n}")
        for j in range(n):
            if img[j] == i:
                img[j] = i + 1
            elif img[j] == i + 1:
                img[j] = i
    return tuple(img)


# ---------------------------------------------------------------------------
# dense matrices: the reference the package's sparse products are
# checked against

def mat_diag(entries, zero) -> tuple:
    """The diagonal matrix with the given entries, `zero` off the diagonal."""
    entries = list(entries)
    return tuple(
        tuple(x if i == j else zero for j in range(len(entries)))
        for i, x in enumerate(entries)
    )


def mat_rows(A) -> tuple:
    """The sparse rows of A: row i as its (column, entry) pairs, zeros left out."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in A)


def rows_dense(A, zero) -> tuple:
    """The dense square matrix with the given sparse rows, `zero` elsewhere."""
    out = []
    for row in A:
        dense = [zero] * len(A)
        for j, x in row:
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)


def mat_identity(rep) -> tuple:
    return mat_diag([rep.field.one] * rep.dim, rep.field.zero)


def eval_dense(rep, word) -> tuple:
    """The value of the word on the rep as a dense matrix, the field's
    zero where `eval_word` stores no entry."""
    return rows_dense(eval_word(rep, word), rep.field.zero)


def mat_add(A, B) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(c, A) -> tuple:
    return tuple(tuple(c * x for x in row) for row in A)


def mat_mul(A, B) -> tuple:
    if A and B and len(A[0]) != len(B):
        raise ValueError("matrix dimension mismatch")
    if not A or not B or not B[0]:
        return tuple(row[:0] for row in A)
    zero = A[0][0] * 0
    out = []
    for row in A:
        acc = [zero] * len(B[0])
        for x, brow in zip(row, B):
            # generator matrices are mostly zeros; skip the dead terms
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def eval_sum(rep, words) -> tuple:
    """The sum of the values of the words on the rep; zero for no words."""
    zero = rep.field.zero
    out = mat_diag([zero] * rep.dim, zero)
    for word in words:
        out = mat_add(out, eval_dense(rep, word))
    return out


def t_inverse(rep, i: int) -> tuple:
    """T_i^-1 as a dense matrix: the inverted first contents for i = 0,
    else q^-1 (T_i + 1 - q) from the quadratic relation, off the rows."""
    field = rep.field
    if i == 0:
        return mat_diag([c.inverse() for c in rep.l_diagonal(1)], field.zero)
    out = []
    for a, row in enumerate(rep.t_rows(i)):
        dense = [field.zero] * rep.dim
        for j, x in row:
            dense[j] = x
        dense[a] = dense[a] + field.one - field.q
        out.append(tuple(field.q_power(-1) * x for x in dense))
    return tuple(out)


# ---------------------------------------------------------------------------
# counting

def count_multipartition_tuples(d: int, m: int) -> int:
    """Coefficient extraction from prod_k (1 - x^k)^{-d}."""
    coeffs = [1] + [0] * m
    for _ in range(d):
        for k in range(1, m + 1):
            # multiply by 1/(1 - x^k)
            for i in range(k, m + 1):
                coeffs[i] += coeffs[i - k]
    return coeffs[m]


# ---------------------------------------------------------------------------
# the halves of v_b: v_b = vb_plus * ub_plus = ub_minus * vb_minus

def ub_plus_word(b, d: int) -> list:
    """The pure ladder tail of v_b: LL^(k) on 1..(b_1+..+b_{k-1})."""
    out = []
    for k in range(2, len(b) + 1):
        out.extend(ll_word(d, k, 1, partial_sum(b, 1, k - 1)))
    return out


def ub_minus_word(b, d: int) -> list:
    """The pure ladder head of v_b: LL^(i) on 1..(b_{i+1}+..+b_p)."""
    p = len(b)
    out = []
    for i in range(p - 1, 0, -1):
        out.extend(ll_word(d, i, 1, partial_sum(b, i + 1, p)))
    return out


def vb_plus_word(b, d: int) -> list:
    """Mixed ladder-swap head with v_b = vb_plus * ub_plus."""
    p = len(b)
    out = []
    for k in range(p - 1, 0, -1):
        out.extend(ll_range_word(p, d, 1, k, 1, b[k]))
        out.extend(t_ab_word(b[k], partial_sum(b, 1, k)))
    return out


def vb_minus_word(b, d: int) -> list:
    """Mixed swap-ladder tail with v_b = ub_minus * vb_minus."""
    p = len(b)
    out = []
    for i in range(p, 1, -1):
        out.extend(t_ab_word(partial_sum(b, i, p), b[i - 2]))
        out.extend(ll_range_word(p, d, i, p, 1, b[i - 2]))
    return out


def twisted_word(word, t: int) -> list:
    """The word with every ladder root multiplied by eps^t, that is t
    added to its twist exponent: the parameter twin of the element at
    the parameters eps^t Q."""
    return [("ladder", item[1], item[2] + t, item[3])
            if item[0] == "ladder" else item for item in word]


def shift_run_word(b, d: int, t: int, m: int) -> list:
    """Y_{t,m}: the m-factor window Y_{tm+m} ... Y_{tm+1}, for t >= 0."""
    if m < 0:
        raise ValueError(f"window length out of range: {m}")
    out = []
    for u in range(t * m + m, t * m, -1):
        out.extend(shift_factor_word(b, d, u))
    return out


# ---------------------------------------------------------------------------
# row stabilizer words and the parameter ladder of a multipartition

def _row_sizes(la: Multipartition) -> list:
    return [part for comp in la.comps for part in comp]


def _young_perms(rows, n: int):
    """All permutations fixing the consecutive intervals of the sizes."""
    pools = []
    off = 0
    for r in rows:
        pools.append([tuple(off + x for x in w)
                      for w in _perm_tuples(range(1, r + 1))])
        off += r
    tail = tuple(range(off + 1, n + 1))
    for combo in _cartesian(*pools):
        yield tuple(x for img in combo for x in img) + tail


def young_sym_word(la: Multipartition) -> list:
    """The terms T_w over the row stabilizer of the multipartition, one
    word each; the element is their sum (`eval_sum`)."""
    n = la.size
    return [t_word(w) for w in _young_perms(_row_sizes(la), n)]


def young_alt_word(la: Multipartition) -> list:
    """The signed terms of the alternating sum of T_w over the row
    stabilizer, one word each."""
    n = la.size
    terms = []
    for w in _young_perms(_row_sizes(la), n):
        sign = [("scal", -1)] if inversions(w) % 2 else []
        terms.append(sign + t_word(w))
    return terms


def ulam_plus_word(la: Multipartition) -> list:
    """The parameter ladder of the multipartition, block by block.

    Within block t the factor (L_j - eps^t Q_s) runs over the first
    a(s, t) positions of the block, where a(s, t) counts the boxes of
    the block's components before the s-th one.
    """
    b = la.composition()
    out = []
    for t in range(1, la.p + 1):
        off = partial_sum(b, 1, t - 1)
        block = la.block(t)
        for s in range(2, la.d + 1):
            a_st = sum(sum(block[c]) for c in range(s - 1))
            out.extend(("ladder", off + j, t, s) for j in range(1, a_st + 1))
    return out


# ---------------------------------------------------------------------------
# tableaux

def superstandard(shape: Multipartition) -> StandardTableau:
    """The tableau with 1..n entered row by row through the components."""
    rows = []
    k = 0
    for c in shape.comps:
        comp = []
        for length in c:
            comp.append(tuple(range(k + 1, k + length + 1)))
            k += length
        rows.append(tuple(comp))
    return StandardTableau(shape, rows)


def is_standard(t: StandardTableau) -> bool:
    """Whether the rows and columns of every component increase."""
    for comp in t.rows:
        for a, row in enumerate(comp):
            for b, x in enumerate(row):
                if b + 1 < len(row) and row[b + 1] < x:
                    return False
                if a + 1 < len(comp) and b < len(comp[a + 1]):
                    if comp[a + 1][b] < x:
                        return False
    return True


def swap(t: StandardTableau, i: int) -> StandardTableau:
    """t with the entries i and i+1 exchanged; may break standardness:
    the reference the position-read swaps of the seminormal skeleton
    are checked against."""
    si, ai, bi = t.position(i)
    sj, aj, bj = t.position(i + 1)
    rows = [list(list(row) for row in comp) for comp in t.rows]
    rows[si - 1][ai - 1][bi - 1] = i + 1
    rows[sj - 1][aj - 1][bj - 1] = i
    return StandardTableau(t.shape, rows)


def shift_tableau(t: StandardTableau, z: int) -> StandardTableau:
    """Block-rotated tableau of shape λ⟨z⟩; entries follow their boxes."""
    p, d = t.shape.p, t.shape.d
    rows = []
    for blk in range(1, p + 1):
        src = ((blk + z - 1) % p) * d
        rows.extend(t.rows[src: src + d])
    return StandardTableau(t.shape.shift(z), rows)


# ---------------------------------------------------------------------------
# the generic field with multiplied-out values

class RefRatFunc:
    """A ratio of two multiplied-out Laurent polynomials, the reference
    for the package's symbolic values.

    Sums and equality cross-multiply, with no gcd and no factored form;
    each value is normalized as it is formed: a common monomial shift,
    and the denominator's lex-least coefficient scaled to 1.  A value of
    the package (a RatFunc) that meets one is multiplied out
    by generic products first (`to_reference`).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = None):
        if den is None:
            den = LaurentPoly.constant(num.order, num.nvars, 1)
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        if not num:
            num = LaurentPoly.zero(num.order, num.nvars)
            den = LaurentPoly.constant(num.order, num.nvars, 1)
        else:
            vec = tuple(-min(a, b) for a, b in zip(num.content(), den.content()))
            if any(vec):
                num = num.shift(vec)
                den = den.shift(vec)
            lead = den.terms[min(den.terms)]
            if lead != CycRat.from_rational(den.order, 1):
                inv = lead.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, RefRatFunc):
            return other
        if isinstance(other, RatFunc):
            return to_reference(other)
        if isinstance(other, LaurentPoly):
            return RefRatFunc(other)
        if isinstance(other, (int, Fraction, CycRat)):
            return RefRatFunc(LaurentPoly.constant(self.num.order,
                                                   self.num.nvars, other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RefRatFunc(self.num + o.num, self.den)
        return RefRatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RefRatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefRatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RefRatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RefRatFunc":
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        return RefRatFunc(self.den, self.num)

    def __pow__(self, k: int) -> "RefRatFunc":
        if k < 0:
            return self.inverse() ** (-k)
        out = RefRatFunc(LaurentPoly.constant(self.num.order, self.num.nvars, 1))
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"RefRatFunc(({self.num!r}) / ({self.den!r}))"


def monomial(order: int, nvars: int, exps, coeff) -> LaurentPoly:
    """coeff * x^exps, for a rational or CycRat coeff."""
    if not isinstance(coeff, CycRat):
        coeff = CycRat.from_rational(order, coeff)
    return LaurentPoly(order, nvars, {tuple(exps): coeff} if coeff else {})


def to_reference(value: RatFunc) -> RefRatFunc:
    """A RatFunc multiplied out by generic products."""
    order, nvars = value.order, value.nvars
    num = monomial(order, nvars, value.mono, value.unit)
    if value.poly is not None:
        num = num * value.poly
    one = LaurentPoly.constant(order, nvars, 1)
    return RefRatFunc(multiply_out_by_products(num, value.num),
                      multiply_out_by_products(one, value.den))


def reference_json(value) -> dict:
    """cli.scalar_to_json, extended to RefRatFunc values."""
    if isinstance(value, RefRatFunc):
        return {"kind": "ratfunc", "order": value.num.order,
                "nvars": value.num.nvars,
                "num": laurent_to_json(value.num),
                "den": laurent_to_json(value.den)}
    return scalar_to_json(value)


class RatFuncField:
    """Q(eps_p)(q, Q_1..Q_d) with every value a RefRatFunc, multiplied out.

    The same handle as exactnum.GenericField, whose values are RatFunc;
    built from LaurentPoly monomials only, it checks that field's values
    and the closed forms computed over it without sharing their code.
    """

    is_generic = True

    def __init__(self, p: int, d: int):
        self.p = p
        self.d = d
        self.nvars = d + 1

    def scalar(self, value) -> RefRatFunc:
        if isinstance(value, RefRatFunc):
            return value
        return RefRatFunc(LaurentPoly.constant(self.p, self.nvars, value))

    @property
    def zero(self) -> RefRatFunc:
        return RefRatFunc(LaurentPoly.zero(self.p, self.nvars))

    @property
    def one(self) -> RefRatFunc:
        return self.scalar(1)

    def eps_pow(self, k: int) -> RefRatFunc:
        if self.p == 1:
            return self.one
        return self.scalar(eps_pow(self.p, k))

    def q_power(self, k: int) -> RefRatFunc:
        exps = [k] + [0] * self.d
        return RefRatFunc(monomial(self.p, self.nvars, exps, 1))

    @property
    def q(self) -> RefRatFunc:
        return self.q_power(1)

    def Q_power(self, i: int, k: int) -> RefRatFunc:
        if not 1 <= i <= self.d:
            raise ValueError(f"Q_{i} out of range for d={self.d}")
        exps = [0] * self.nvars
        exps[i] = k
        return RefRatFunc(monomial(self.p, self.nvars, exps, 1))

    def Q(self, i: int) -> RefRatFunc:
        return self.Q_power(i, 1)

    def __eq__(self, other):
        return (isinstance(other, RatFuncField)
                and (self.p, self.d) == (other.p, other.d))

    def __hash__(self):
        return hash(("RatFuncField", self.p, self.d))


class FractionPoint:
    """A point with p = 2, eps = -1 and rational q, Q_1..Q_d, every value
    a Fraction.

    It defines only the members of the field protocol written in the
    docstring of exactnum, and its arithmetic is Python's own, sharing no
    code with CycRat: the package run over it cross-checks SpecPoint at
    the same (q, Q).
    """

    p = 2
    is_generic = False

    def __init__(self, q, Qs):
        self.d = len(Qs)
        self.q = Fraction(q)
        self._Qs = tuple(Fraction(x) for x in Qs)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def scalar(self, value) -> Fraction:
        if isinstance(value, CycRat):
            # Q(zeta_1) = Q(zeta_2) = Q: one coordinate
            if 2 % value.order:
                raise ValueError(f"cannot embed order {value.order}")
            value = Fraction(value.nums[0], value.den)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"not a scalar: {value!r}")
        return Fraction(value)

    def eps_pow(self, k: int) -> Fraction:
        return Fraction(-1 if k % 2 else 1)

    def rational(self, value: Fraction) -> Fraction:
        return value

    def q_power(self, k: int) -> Fraction:
        return self.q ** k

    def Q(self, i: int) -> Fraction:
        if not 1 <= i <= self.d:
            raise ValueError(f"Q_{i} out of range for d={self.d}")
        return self._Qs[i - 1]

    def Q_power(self, i: int, k: int) -> Fraction:
        return self.Q(i) ** k

    def to_json(self) -> dict:
        return {"fraction": {"q": str(self.q),
                             "Q": [str(x) for x in self._Qs]}}

    def __eq__(self, other):
        return (isinstance(other, FractionPoint)
                and (self.q, self._Qs) == (other.q, other._Qs))

    def __hash__(self):
        return hash(("FractionPoint", self.q, self._Qs))


def multiply_out_by_products(poly: LaurentPoly, factors) -> LaurentPoly:
    """poly times each binomial c*x^m - 1 of factors, one generic product each.

    factors maps (m, c) to a multiplicity, as the multisets of
    exactnum.RatFunc do.
    """
    origin = (0,) * poly.nvars
    minus_one = CycRat.from_rational(poly.order, -1)
    for (m, c), k in factors.items():
        binomial = LaurentPoly(poly.order, poly.nvars, {m: c, origin: minus_one})
        for _ in range(k):
            poly = poly * binomial
    return poly


def multiply_out_by_passes(poly: LaurentPoly, factors) -> LaurentPoly:
    """poly times each binomial c*x^m - 1 of factors, one pass each with
    CycRat coefficients: the terms shifted by m and scaled by c, minus
    the terms.  The kernel exactnum._multiply_out computes the same on
    integer numerators."""
    terms = poly.terms
    for (m, c), k in factors.items():
        for _ in range(k):
            out = {tuple(a + b for a, b in zip(e, m)): v * c
                   for e, v in terms.items()}
            for e, v in terms.items():
                cur = out.pop(e, None)
                if cur is None:
                    out[e] = -v
                elif cur != v:
                    out[e] = cur - v
            terms = out
    return LaurentPoly(poly.order, poly.nvars, terms)


# ---------------------------------------------------------------------------
# the closed-form scalars multiplied out: every factor a RefRatFunc of a
# RatFuncField, each product normalized as it is formed; only the
# exponents come from the package (scalars._exponents)

def _rf_twisted_hook(field, comps, p, d, i, j, s, t):
    ps, ds = component_index(s, p, d)
    pt, dt = component_index(t, p, d)
    value = field.q_power(hook(comps[s - 1], comps[t - 1], i, j))
    if ps != pt:
        value = value * field.eps_pow(ps - pt)
    if ds != dt:
        value = value * field.Q_power(ds, 1) * field.Q_power(dt, -1)
    return value


def _rf_boxes(comps):
    for s, comp in enumerate(comps, start=1):
        for i, row in enumerate(comp, start=1):
            for j in range(1, row + 1):
                yield i, j, s


def _rf_schur(field, comps, p, d):
    m = p * d
    n = sum(sum(c) for c in comps)
    pooled = tuple(sorted((x for c in comps for x in c), reverse=True))
    value = field.q_power(-beta(pooled)) / (field.q - field.one) ** n
    if (n * (m - 1)) % 2:
        value = -value
    for i, j, s in _rf_boxes(comps):
        for t in range(1, m + 1):
            value = value * (_rf_twisted_hook(field, comps, p, d, i, j, s, t)
                             - field.one)
    return value


def multiplied_schur(la: Multipartition):
    """The Schur element of la as a RefRatFunc, multiplied out."""
    return _rf_schur(RatFuncField(la.p, la.d), la.comps, la.p, la.d)


def multiplied_schur_b(la: Multipartition):
    """The block Schur element of la as a RefRatFunc, multiplied out."""
    field = RatFuncField(la.p, la.d)
    value = field.one
    for t in range(1, la.p + 1):
        value = value * _rf_schur(field, la.block(t), 1, la.d)
    return value


def multiplied_f(la: Multipartition):
    """The scalar f of (la, its composition) as a RefRatFunc, multiplied out."""
    p, d, n = la.p, la.d, la.size
    field = RatFuncField(p, d)
    exps = _exponents(la, la.composition())
    value = field.eps_pow(exps.eps_f) * field.q_power(exps.gamma)
    for c in range(1, d + 1):
        value = value * field.Q_power(c, n * (p - 1))
    for i, j, s in _rf_boxes(la.comps):
        ps = component_index(s, p, d)[0]
        for t in range(1, la.r + 1):
            if component_index(t, p, d)[0] != ps:
                value = value * (_rf_twisted_hook(field, la.comps, p, d,
                                                  i, j, s, t) - field.one)
    return value


def multiplied_g(la: Multipartition):
    """The root g of (la, its composition) as a RefRatFunc, multiplied out."""
    p, d = la.p, la.d
    field = RatFuncField(p, d)
    exps = _exponents(la, la.composition())
    root = la.orbit_slice()
    value = field.eps_pow(exps.eps_g) * field.q_power(exps.gamma_root)
    for c in range(1, d + 1):
        value = value * field.Q_power(c, exps.root_size * (p - 1))
    for i, j, s in _rf_boxes(root.comps):
        ps = component_index(s, exps.orbit, d)[0]
        for t in range(1, exps.orbit * d + 1):
            pt = component_index(t, exps.orbit, d)[0]
            for a in range(exps.split):
                if a == 0 and pt == ps:
                    continue
                twisted = _rf_twisted_hook(field, root.comps, exps.orbit, d,
                                           i, j, s, t)
                value = value * (field.eps_pow(a * exps.orbit) * twisted
                                 - field.one)
    return value


# ---------------------------------------------------------------------------
# specialization and the scalar JSON decoder

def specialize(f, pt: SpecPoint) -> CycRat:
    """Exact evaluation of f at pt; raises PoleError on a vanishing denominator."""
    if isinstance(f, RatFunc):
        f = to_reference(f)
    if isinstance(f, RefRatFunc):
        num = specialize(f.num, pt)
        den = specialize(f.den, pt)
        if not den:
            raise PoleError("denominator vanishes at the specialization point")
        return num / den
    if isinstance(f, LaurentPoly):
        if f.nvars != pt.d + 1:
            raise ValueError(f"polynomial in {f.nvars} variables, point has d={pt.d}")
        values = [pt.q] + [pt.Q(i) for i in range(1, pt.d + 1)]
        total = pt.zero
        for e, c in f.terms.items():
            term = pt.scalar(c)
            for i, k in enumerate(e):
                if k:
                    term = term * values[i] ** k
            total = total + term
        return total
    if isinstance(f, (CycRat, int, Fraction)):
        return pt.scalar(f)
    raise TypeError(f"cannot specialize {type(f).__name__}")


def _laurent_from_json(rows, order: int, nvars: int) -> LaurentPoly:
    terms = {}
    for exps, coeffs in rows:
        c = CycRat.make(order, [Fraction(a, b) for a, b in coeffs])
        if c:
            terms[tuple(exps)] = c
    return LaurentPoly(order, nvars, terms)


def scalar_from_json(data: dict):
    """Inverse of cli.scalar_to_json."""
    kind = data["kind"]
    if kind == "ratfunc":
        order, nvars = data["order"], data["nvars"]
        return RefRatFunc(_laurent_from_json(data["num"], order, nvars),
                          _laurent_from_json(data["den"], order, nvars))
    if kind == "cycrat":
        return CycRat.make(data["order"],
                           [Fraction(a, b) for a, b in data["coeffs"]])
    if kind == "rational":
        a, b = data["value"]
        return Fraction(a, b)
    raise ValueError(f"unknown scalar kind {kind!r}")
