"""Exact arithmetic over cyclotomic fields and Laurent rational functions.

The scalar tower used throughout the package:

* ``CycRat``: an element of Q(zeta_m), stored as the reduced residue of a
  polynomial in zeta_m modulo the m-th cyclotomic polynomial Phi_m, in
  one integer form: integer numerators over one common denominator, with
  no common factor left.  The symbolic layer works with m = p (the order
  of eps); specialization points may use any conductor N with p | N.  All
  reduction goes through one cached table, the reduced powers
  zeta_m^0 .. zeta_m^(m-1) built from the Phi_m recurrence; Phi_m is monic
  and integral, so the table is integral too.  Products reduce their high
  terms with it; a product of degree phi(m) = 2 (m = 3, 4, 6) is written
  out and reads its one high term, zeta_m^2, from the same table.  An
  operand of the exact type and order skips coercion.  ``_substitute``
  reads sum_j c_j zeta_m^(j*step) off the table, which gives reduction
  of long polynomials, the Galois conjugates and the embeddings
  Q(zeta_m) -> Q(zeta_N), all on integers.  Sums and
  products take one gcd over the result at most, and none when the
  denominators are 1.  Inverses are the product of the other Galois
  conjugates of the numerators divided by their integer norm.
* ``LaurentPoly``: a Laurent polynomial in q, Q_1, ..., Q_d (variable 0 is
  always q) with CycRat coefficients.
* ``RatFunc``: the one value type of ``GenericField``.  Every
  denominator over the generic field is a product of binomials c*x^m - 1
  (contents differ by such factors, and the Schur elements are hook
  products), kept as a multiset of them.  A value is a unit times a
  monomial times an optional multiplied-out LaurentPoly times one
  multiset over another.  The closed forms (Schur elements, f and g)
  have no poly; products, quotients and differences of two monomials
  keep it that way.  Any other sum multiplies both numerators out over
  the multiset union into a poly, so a sum is one more factor, not
  another type; `/` by a sum is exact or raises ArithmeticError.  No
  gcd is ever taken.  The denominator is multiplied out only for JSON
  (``ratfunc_to_json``).  ``_multiply_out`` multiplies out on integers:
  power-basis numerators over one denominator, each c applied as rows
  of the zeta-power table, one CycRat built per output term.
* ``SpecPoint``: an exact evaluation point (eps, q, Q_1, ..., Q_d) with all
  coordinates in Q(zeta_N) and eps = zeta_N^(N/p).

All values are immutable and all operations are pure.

The field protocol.  Everything outside this module computes over a
field, a backend it is handed: ``GenericField`` (values RatFunc) or a
``SpecPoint`` (values CycRat).  It reads only these members:

* ``p`` and ``d``: the order of eps and the number of parameters Q_i;
* ``zero``, ``one`` and ``q``: values, set when the field is built;
* ``scalar(value)``: an int, a Fraction or a CycRat as a value of the
  field.  Both backends embed a CycRat whose order divides the
  conductor of a point or the p of the generic field, and refuse one of
  any other order with ValueError.  A point refuses a RatFunc with
  TypeError; the generic field returns a RatFunc of its own ring
  unchanged.  Any other type is a TypeError;
* ``eps_pow(k)``, ``q_power(k)``, ``Q(i)`` and ``Q_power(i, k)``;
* ``rational(value)``: the Fraction a value of the field equals, or
  None when it is not a rational constant;
* ``to_json()``: the field as a JSON object;
* ``is_generic``: read only by the two evaluation policies of
  ``seminormal``, the word memo (generic values do not hash) and the
  size of an evaluation unit, each site saying why;
* ``==`` and ``hash``, since memos are keyed by the field.

Values support ``+ - * /``, unary minus, ``**`` by an int, ``==`` and
``bool`` (nonzero); at a point they hash.  ``scalar_to_json`` writes a
value of either backend.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "PoleError",
    "CycRat",
    "LaurentPoly",
    "RatFunc",
    "SpecPoint",
    "GenericField",
    "cyclotomic_poly",
    "eps_pow",
    "generic_field",
    "is_separated",
    "is_semisimple",
    "sample_point",
    "laurent_to_json",
    "ratfunc_to_json",
    "scalar_to_json",
]


class PoleError(ArithmeticError):
    """A denominator vanished while specializing a rational function."""


def _poly_div_exact(num: list, den: Sequence) -> list:
    """Divide num by monic den in Z[x] (coefficients low to high), exactly."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    if any(num[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return out


def cyclotomic_poly(m: int) -> tuple:
    """Coefficients of Phi_m(x), low to high, as integers."""
    if m < 1:
        raise ValueError("cyclotomic polynomial needs m >= 1")
    poly = [-1] + [0] * (m - 1) + [1]
    for k in range(1, m):
        if m % k == 0:
            poly = _poly_div_exact(poly, cyclotomic_poly(k))
    return tuple(poly)


class CycRat:
    """An element of Q(zeta_order): integer numerators over one denominator.

    The value is sum_j nums[j] * zeta^j / den over the power basis
    zeta^0 .. zeta^(phi(order) - 1).  Every value is kept canonical:
    den >= 1 and gcd(den, *nums) == 1, so zero is (0, ..., 0)/1 and equal
    values have equal (order, nums, den).
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple, den: int = 1):
        self.order = order
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    @staticmethod
    def make(order: int, coeffs: Iterable[Rational]) -> "CycRat":
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        return _canonical(order, _substitute(order, nums), den)

    @staticmethod
    def from_rational(order: int, value: Rational) -> "CycRat":
        zeros = _zeta_powers(order)[0].nums[1:]
        return CycRat(order, (value.numerator,) + zeros, value.denominator)

    def _coerce(self, other):
        if isinstance(other, CycRat):
            if other.order != self.order:
                raise ValueError(
                    f"mixed cyclotomic orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycRat.from_rational(self.order, other)
        return None

    def _sum(self, b: tuple, db: int) -> "CycRat":
        """self + b/db for integer numerators b, den db >= 1."""
        a, da = self.nums, self.den
        if da == db:
            nums = tuple(x + y for x, y in zip(a, b))
            if da == 1:
                return CycRat(self.order, nums, 1)
            return _canonical(self.order, nums, da)
        g = gcd(da, db)
        if g == 1:
            # a prime dividing da leaves x*db + y*da = x*db (mod prime),
            # and it divides neither db nor every x; so too for db: the
            # sum is already canonical
            return CycRat(self.order,
                          tuple(x * db + y * da for x, y in zip(a, b)), da * db)
        ea, eb = da // g, db // g
        return _canonical(self.order,
                          tuple(x * eb + y * ea for x, y in zip(a, b)), ea * db)

    def __add__(self, other):
        # an operand of this exact type and order needs no coercion
        o = (other if type(other) is CycRat and other.order == self.order
             else self._coerce(other))
        if o is None:
            return NotImplemented
        return self._sum(o.nums, o.den)

    __radd__ = __add__

    def __neg__(self):
        return CycRat(self.order, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        o = (other if type(other) is CycRat and other.order == self.order
             else self._coerce(other))
        if o is None:
            return NotImplemented
        return self._sum(tuple(-b for b in o.nums), o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = (other if type(other) is CycRat and other.order == self.order
             else self._coerce(other))
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        deg, m = len(a), self.order
        if deg == 1:
            res = (a[0] * b[0],)
        elif deg == 2:
            # orders 3, 4 and 6: the loop below with its one high term,
            # zeta^2 = r0 + r1*zeta, written out
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            r0, r1 = _zeta_powers(m)[2].nums
            res = (a0 * b0 + t * r0, a0 * b1 + a1 * b0 + t * r1)
        else:
            conv = [0] * (2 * deg - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b, i):
                        conv[j] += ai * bj
            res = conv[:deg]
            powers = _zeta_powers(m)
            for k in range(deg, 2 * deg - 1):
                c = conv[k]
                if c:
                    for j, r in enumerate(powers[k % m].nums):
                        if r:
                            res[j] += c * r
            res = tuple(res)
        den = self.den * o.den
        if den == 1:
            return CycRat(m, res, 1)
        return _canonical(m, res, den)

    __rmul__ = __mul__

    def inverse(self) -> "CycRat":
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        # for a = A/den with A integral, a^-1 = den * (prod of the
        # conjugates sigma_k(A), k != 1) / N(A), where sigma_k: zeta ->
        # zeta^k runs over the Galois group (Z/m)^*; the conjugates and
        # their product stay integral, and N(A) is a nonzero integer
        m = self.order
        rest = CycRat.from_rational(m, 1)
        for k in range(2, m):
            if gcd(k, m) == 1:
                rest = rest * CycRat(m, _substitute(m, self.nums, k))
        norm = CycRat(m, self.nums) * rest
        if not norm.is_rational():
            raise RuntimeError(
                f"internal: the norm of {self!r} is not rational")
        value = norm.nums[0]
        scale = self.den if value > 0 else -self.den
        return _canonical(m, tuple(scale * c for c in rest.nums), abs(value))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "CycRat":
        if k < 0:
            return self.inverse() ** (-k)
        result = CycRat.from_rational(self.order, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        o = (other if type(other) is CycRat and other.order == self.order
             else self._coerce(other))
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((self.order, self.nums, self.den))

    def __bool__(self):
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def __repr__(self):
        return f"CycRat({self.order}, {[str(c) for c in self.coeffs]})"


def _canonical(order: int, nums: tuple, den: int) -> CycRat:
    """nums/den (den >= 1) with the common factor of den and nums removed."""
    g = gcd(den, *nums)
    if g == 1:
        return CycRat(order, nums, den)
    return CycRat(order, tuple(a // g for a in nums), den // g)


# no measured traffic near the bound: 2 to 3 entries after a pass of
# each benchmark workload and after the desk fixtures
@lru_cache(maxsize=64)
def _zeta_powers(order: int) -> tuple:
    """zeta_order^e for e = 0 .. order - 1, reduced modulo Phi_order.

    Each power is the previous one shifted up a degree; a coefficient
    pushed to degree deg(Phi) is folded back with x^deg = x^deg - Phi(x).
    Phi is monic with integer coefficients, so every power is integral.
    """
    phi = cyclotomic_poly(order)
    cur = (1,) + (0,) * (len(phi) - 2)
    powers = [CycRat(order, cur)]
    for _ in range(order - 1):
        top = cur[-1]
        cur = (0,) + cur[:-1]
        if top:
            cur = tuple(a - top * c for a, c in zip(cur, phi))
        powers.append(CycRat(order, cur))
    return tuple(powers)


def _substitute(order: int, nums: Sequence[int], step: int = 1) -> tuple:
    """Reduced integer coordinates of sum_j nums[j] * zeta_order^(j * step).

    step = 1 reduces a polynomial of any length in zeta_order modulo
    Phi_order (``CycRat.make``); step = k coprime to order applies the
    Galois automorphism zeta -> zeta^k (``CycRat.inverse``); with order the
    conductor N and step = N / m it embeds Q(zeta_m) into Q(zeta_N)
    (``_embed``).  The last two map Z[zeta_m] into Z[zeta_N] and
    keep the gcd of the coordinates, so they take canonical numerators to
    canonical numerators; a reduction (step = 1) may not.
    """
    powers = _zeta_powers(order)
    out = [0] * len(powers[0].nums)
    for j, c in enumerate(nums):
        if c:
            for i, r in enumerate(powers[j * step % order].nums):
                if r:
                    out[i] += c * r
    return tuple(out)


def eps_pow(p: int, k: int) -> CycRat:
    """eps^k in Q(eps), eps a primitive p-th root of unity; needs p >= 2."""
    if p < 2:
        raise ValueError("invalid order: a primitive root of unity needs p >= 2")
    return _zeta_powers(p)[k % p]


class LaurentPoly:
    """Laurent polynomial in q, Q_1..Q_d over Q(zeta_order); variable 0 is q."""

    __slots__ = ("order", "nvars", "terms")

    def __init__(self, order: int, nvars: int, terms: dict):
        self.order = order
        self.nvars = nvars
        self.terms = terms

    @staticmethod
    def zero(order: int, nvars: int) -> "LaurentPoly":
        return LaurentPoly(order, nvars, {})

    @staticmethod
    def constant(order: int, nvars: int, value) -> "LaurentPoly":
        c = value if isinstance(value, CycRat) else CycRat.from_rational(order, value)
        if c.order != order:
            raise ValueError("coefficient from a different cyclotomic order")
        if not c:
            return LaurentPoly.zero(order, nvars)
        return LaurentPoly(order, nvars, {(0,) * nvars: c})

    def _check(self, other: "LaurentPoly"):
        if self.order != other.order or self.nvars != other.nvars:
            raise ValueError("Laurent polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            cur = terms.get(e)
            if cur is None:
                terms[e] = c
            else:
                s = cur + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return LaurentPoly(self.order, self.nvars, terms)

    def __neg__(self):
        return LaurentPoly(self.order, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                cur = terms.get(e)
                if cur is None:
                    if c:
                        terms[e] = c
                else:
                    s = cur + c
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return LaurentPoly(self.order, self.nvars, terms)

    def scale(self, coeff: CycRat) -> "LaurentPoly":
        if not coeff:
            return LaurentPoly.zero(self.order, self.nvars)
        return LaurentPoly(self.order, self.nvars, {e: c * coeff for e, c in self.terms.items()})

    def shift(self, vec: Sequence[int]) -> "LaurentPoly":
        vec = tuple(vec)
        return LaurentPoly(
            self.order, self.nvars,
            {tuple(a + b for a, b in zip(e, vec)): c for e, c in self.terms.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.order, self.nvars, self.terms) == (other.order, other.nvars, other.terms)

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """self / other when that is a Laurent polynomial, by long division
        on lex-greatest terms; ArithmeticError when it is not.  In each
        variable the top and bottom degrees of a product add, so an exact
        quotient lies in the box they allow, and as each step lowers the
        remainder's lex-greatest term, one outside it ends the division."""
        self._check(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = max(other.terms)
        inv = other.terms[lead].inverse()
        lo = [a - b for a, b in zip(self.content(), other.content())]
        hi = [max(a) - max(b)
              for a, b in zip(zip(*self.terms), zip(*other.terms))]
        rem = dict(self.terms)
        quot = {}
        while rem:
            e = max(rem)
            s = tuple(a - b for a, b in zip(e, lead))
            if not all(l <= x <= h for x, l, h in zip(s, lo, hi)):
                raise ArithmeticError("inexact Laurent polynomial division")
            c = rem[e] * inv
            quot[s] = c
            for f, v in other.terms.items():
                g = tuple(a + b for a, b in zip(f, s))
                r = rem.get(g, 0) - c * v
                if r:
                    rem[g] = r
                else:
                    del rem[g]
        return LaurentPoly(self.order, self.nvars, quot)

    def __bool__(self):
        return bool(self.terms)

    def content(self) -> tuple:
        """Componentwise minimum exponent over all terms (zero poly: origin)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(map(min, zip(*self.terms)))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        names = ["q"] + [f"Q{i}" for i in range(1, self.nvars)]
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{names[i]}^{k}" if k != 1 else names[i]
                for i, k in enumerate(e) if k
            )
            bits.append(f"({c!r})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# an empty multiset of binomials, shared; multisets are never mutated
_NO_FACTORS = Counter()


def _union(a: Counter, b: Counter) -> Counter:
    if not (a and b):
        return a or b
    # dict.update copies a's entries with their stored hashes
    out = Counter()
    dict.update(out, a)
    for f, k in b.items():
        out[f] = out.get(f, 0) + k
    return out


def _is_one(c: CycRat) -> bool:
    return c.den == 1 and c.nums[0] == 1 and not any(c.nums[1:])


def _factors(ms: Counter) -> list:
    return [f"({c!r}*x^{list(m)} - 1)^{k}" for (m, c), k in ms.items()]


def _power(ms: Counter, k: int) -> Counter:
    if not (ms and k):
        return _NO_FACTORS
    return Counter({f: k * e for f, e in ms.items()})


class RatFunc:
    """unit * x^mono * poly * prod(num) / prod(den) over
    Q(zeta_order)(q, Q_1..Q_d), the values of ``GenericField``.

    unit is a CycRat, mono an exponent vector over (q, Q_1, ..., Q_d), and
    num and den are multisets of binomials c*x^m - 1, each keyed (m, c)
    with m lex-positive: a binomial whose monomial is lex-negative is
    stored as -c*x^m * (c^-1*x^-m - 1).  The two multisets are never
    cancelled against each other, so the JSON form multiplies out
    exactly the factors a closed formula named, one after another.
    poly is None for a closed form and, after a sum, a LaurentPoly of
    two or more terms.  A value is zero iff its unit is: no binomial
    with m != 0 vanishes, and neither does poly.  A quotient by a poly
    is a Laurent polynomial, else ArithmeticError ("inexact").
    """

    __slots__ = ("unit", "mono", "poly", "num", "den", "_lifted")

    def __init__(self, unit: CycRat, mono: tuple, num: Counter = _NO_FACTORS,
                 den: Counter = _NO_FACTORS, poly: LaurentPoly = None):
        self.unit = unit
        self.mono = mono
        self.poly = poly
        self.num = num
        self.den = den
        self._lifted = None

    @property
    def order(self) -> int:
        return self.unit.order

    @property
    def nvars(self) -> int:
        return len(self.mono)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if (other.order, other.nvars) != (self.order, self.nvars):
                raise ValueError("symbolic values from different rings")
            return other
        if isinstance(other, (int, Fraction, CycRat)):
            return RatFunc(_as_cycrat(self.order, other), (0,) * self.nvars)
        return None

    def _expanded(self) -> tuple:
        """The numerator multiplied out and the denominator multiset,
        emptied when the value is zero."""
        if self._lifted is None:
            if self.poly is None:
                # a closed form: the one term unit * x^mono
                poly = LaurentPoly(self.order, self.nvars,
                                   {self.mono: self.unit} if self.unit else {})
            else:
                poly = self.poly.shift(self.mono) if any(self.mono) else self.poly
                if not _is_one(self.unit):
                    poly = poly.scale(self.unit)
            self._lifted = (_multiply_out(poly, self.num),
                            self.den if self.unit else _NO_FACTORS)
        return self._lifted

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x, y, den = _common(self, o)
        return _over(x + y, den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.unit, self.mono, self.num, self.den, self.poly)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.poly or self.num or self.den
                or o.poly or o.num or o.den):
            return _binomial(self.unit, self.mono, o.unit, o.mono)
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else -self + o

    def __mul__(self, other):
        # an operand of this exact type and ring needs no coercion
        o = (other if type(other) is RatFunc
             and other.unit.order == self.unit.order
             and len(other.mono) == len(self.mono) else self._coerce(other))
        if o is None:
            return NotImplemented
        if _is_one(self.unit):
            unit = o.unit
        elif _is_one(o.unit):
            unit = self.unit
        else:
            unit = self.unit * o.unit
        if self.poly is None or o.poly is None:
            poly = self.poly or o.poly
        else:
            poly = self.poly * o.poly
        return RatFunc(unit, tuple(map(add, self.mono, o.mono)),
                       _union(self.num, o.num), _union(self.den, o.den), poly)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        """1 / self, for a closed form only; `/` divides by a poly exactly."""
        if self.poly is not None:
            if not self:
                raise ZeroDivisionError("inverse of zero rational function")
            raise NotImplementedError(
                f"division by a numerator of {len(self.poly.terms)} terms")
        unit = self.unit if _is_one(self.unit) else self.unit.inverse()
        return RatFunc(unit, tuple(-a for a in self.mono), self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.poly is None:
            return self * o.inverse()
        x, y, _ = _common(self, o)
        return _over(x.divide_exact(y), _NO_FACTORS)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, k: int):
        if self.poly is not None:
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return RatFunc(self.unit ** k, tuple(k * a for a in self.mono),
                       _power(self.num, k), _power(self.den, k))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.unit or not o.unit:
            return not self.unit and not o.unit
        # different multisets can still be equal values: q^2 - 1 is
        # (q - 1)(q + 1), so only then are the numerators multiplied out
        if (self.unit == o.unit and self.mono == o.mono
                and self.poly == o.poly
                and self.num + o.den == o.num + self.den):
            return True
        x, y, _ = _common(self, o)
        return x == y

    def __bool__(self):
        return bool(self.unit)

    def constant(self):
        """The CycRat this value equals, or None.  The only candidate is
        the numerator's constant term over (-1)^k, the constant term of a
        product of k binomials."""
        num, den = self._expanded()
        c = num.terms.get((0,) * self.nvars) or CycRat.from_rational(
            self.order, 0)
        c = -c if sum(den.values()) % 2 else c
        return c if self == c else None

    def __repr__(self):
        poly = "" if self.poly is None else f" * ({self.poly!r})"
        return (f"RatFunc({self.unit!r} * x^{list(self.mono)}{poly}, "
                f"num={_factors(self.num)}, den={_factors(self.den)})")


def _over(poly: LaurentPoly, den: Counter) -> RatFunc:
    """poly / prod(den); a closed form when poly has at most one term."""
    origin = (0,) * poly.nvars
    if not poly:
        return RatFunc(CycRat.from_rational(poly.order, 0), origin)
    if len(poly.terms) == 1:
        (e, c), = poly.terms.items()
        return RatFunc(c, e, den=den)
    return RatFunc(CycRat.from_rational(poly.order, 1), origin, den=den,
                   poly=poly)


def _common(a: RatFunc, b: RatFunc) -> tuple:
    """The numerators of two values over the union of their multisets
    (each binomial at its larger multiplicity), and the union."""
    (x, da), (y, db) = a._expanded(), b._expanded()
    if da == db:
        return x, y, da
    den = da | db
    return _multiply_out(x, den - da), _multiply_out(y, den - db), den


def _binomial(a: CycRat, alpha: tuple, b: CycRat, beta: tuple) -> RatFunc:
    """a*x^alpha - b*x^beta as a unit, a monomial and at most one binomial.

    With r = a/b and s = alpha - beta this is b*x^beta * (r*x^s - 1), or
    for s lex-negative -a*x^alpha * (r^-1*x^-s - 1).
    """
    if alpha == beta:
        return RatFunc(a - b, alpha)
    if not a or not b:
        return RatFunc(a, alpha) if a else RatFunc(-b, beta)
    s = tuple(x - y for x, y in zip(alpha, beta))
    if next(e for e in s if e) > 0:
        r = a if b == 1 else a / b
        return RatFunc(b, beta, Counter({(s, r): 1}))
    r = a.inverse() if b == 1 else b / a
    return RatFunc(-a, alpha, Counter({(tuple(-e for e in s), r): 1}))


def _negated_times(c: CycRat):
    """v -> -v * c * c.den on power-basis numerators: the sum of the v_j
    times row j, the numerators of -zeta^j * c * c.den, each row the one
    before times zeta, reduced with the table."""
    if len(c.nums) == 1:
        r = -c.nums[0]
        return lambda v: (v[0] * r,)
    rows = [tuple(-a for a in c.nums)]
    for _ in range(1, len(c.nums)):
        rows.append(_substitute(c.order, (0,) + rows[-1]))
    if len(rows) == 2:
        (a, b), (e, f) = rows
        return lambda v: (v[0] * a + v[1] * e, v[0] * b + v[1] * f)
    cols = tuple(zip(*rows))
    return lambda v: tuple(sum(map(mul, v, col)) for col in cols)


def _multiply_out(poly: LaurentPoly, factors: Counter) -> LaurentPoly:
    """poly times every binomial c*x^m - 1 of the multiset, on integers.

    The coefficients are power-basis numerators over one common
    denominator.  A pass by 1 - c*x^m with c = C/dc scales the terms by
    dc and adds -v*C at each exponent shifted by m (m != 0); a sum of two
    numerators is zero iff every coordinate is, so a cancellation is seen
    on reduced values.  Each pass flips the sign, so the terms start
    scaled by (-1)^passes, and one CycRat is built per output term."""
    if not factors:
        return poly
    order = poly.order
    den = (-1) ** sum(factors.values()) * lcm(
        *[c.den for c in poly.terms.values()])
    terms = {e: c.nums if c.den == den
             else tuple([den // c.den * a for a in c.nums])
             for e, c in poly.terms.items()}
    den = abs(den)
    for (shift, c), k in factors.items():
        times, dc = _negated_times(c), c.den
        for _ in range(k):
            out = {tuple(map(add, e, shift)): times(v)
                   for e, v in terms.items()}
            for e, v in terms.items():
                if dc != 1:
                    v = tuple([dc * a for a in v])
                cur = out.get(e)
                if cur is None:
                    out[e] = v
                else:
                    v = tuple(map(add, cur, v))
                    if any(v):
                        out[e] = v
                    else:
                        del out[e]
            terms = out
        den *= dc ** k
    if den == 1:
        return LaurentPoly(order, poly.nvars,
                           {e: CycRat(order, v, 1) for e, v in terms.items()})
    return LaurentPoly(order, poly.nvars,
                       {e: _canonical(order, v, den) for e, v in terms.items()})


class GenericField:
    """Handle for symbolic computation in F = Q(eps_p)(q, Q_1..Q_d).

    Its values are RatFunc: each constant, eps^k, q^k and Q_i^k is a
    closed form, a unit times a monomial.  Products, quotients and the
    difference of two monomials stay closed forms; any other sum
    multiplies its numerator out into poly, over the same binomial
    denominators.
    """

    is_generic = True

    def __init__(self, p: int, d: int):
        # p = 1 (eps trivial: plain Ariki-Koike) has a generic field too
        if p < 1:
            raise ValueError("invalid order: the symbolic field needs p >= 1")
        if d < 1:
            raise ValueError("need at least one parameter Q_1")
        self.p = p
        self.d = d
        self.nvars = d + 1
        self._unit = CycRat.from_rational(p, 1)
        self._origin = (0,) * self.nvars
        self.zero = RatFunc(CycRat.from_rational(p, 0), self._origin)
        self.one = RatFunc(self._unit, self._origin)
        self.q = self.q_power(1)

    def scalar(self, value) -> RatFunc:
        if isinstance(value, RatFunc):
            if (value.order, value.nvars) != (self.p, self.nvars):
                raise ValueError("symbolic values from different rings")
            return value
        if isinstance(value, CycRat):
            value = _embed(self.p, value)
        return RatFunc(_as_cycrat(self.p, value), self._origin)

    def eps_pow(self, k: int) -> RatFunc:
        if self.p == 1:
            return self.one
        return RatFunc(eps_pow(self.p, k), self._origin)

    def q_power(self, k: int) -> RatFunc:
        return RatFunc(self._unit, (k,) + self._origin[1:])

    def rational(self, value: RatFunc):
        c = value.constant()
        if c is None or not c.is_rational():
            return None
        return c.rational_value()

    def Q_power(self, i: int, k: int) -> RatFunc:
        if not 1 <= i <= self.d:
            raise ValueError(f"Q_{i} out of range for d={self.d}")
        exps = [0] * self.nvars
        exps[i] = k
        return RatFunc(self._unit, tuple(exps))

    def Q(self, i: int) -> RatFunc:
        return self.Q_power(i, 1)

    def to_json(self) -> dict:
        return {"generic": {"p": self.p, "d": self.d}}

    def __eq__(self, other):
        return (isinstance(other, GenericField)
                and (self.p, self.d) == (other.p, other.d))

    def __hash__(self):
        return hash(("GenericField", self.p, self.d))

    def __repr__(self):
        return f"GenericField(p={self.p}, d={self.d})"


generic_field = GenericField


def _embed(order: int, value: CycRat) -> CycRat:
    """value, of an order m dividing order, in Q(zeta_order): how both
    backends' ``scalar`` read a CycRat."""
    if value.order == order:
        return value
    if order % value.order != 0:
        raise ValueError(
            f"cannot embed order {value.order} into Q(zeta_{order})")
    return CycRat(order, _substitute(order, value.nums, order // value.order),
                  value.den)


def _as_cycrat(order: int, value) -> CycRat:
    if isinstance(value, CycRat):
        if value.order != order:
            raise ValueError("cyclotomic order mismatch")
        return value
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"not a scalar: {value!r}")
    return CycRat.from_rational(order, value)


class SpecPoint:
    """Exact evaluation point: eps = zeta_N^(N/p), q and Q_i in Q(zeta_N).

    A point never changes after it is built, so its hash is computed once,
    in the constructor, and the memos keyed by the point (reps, ladder
    entries, Schur inverses) read it from a slot.
    """

    is_generic = False

    __slots__ = ("p", "N", "d", "q", "Q_vals", "zero", "one", "_hash")

    def __init__(self, p: int, N: int, q_val, Q_vals: Sequence):
        if p < 2:
            raise ValueError("invalid order: need p >= 2")
        if N < 1 or N % p != 0:
            raise ValueError("conductor N must be a positive multiple of p")
        self.p = p
        self.N = N
        self.q = _as_cycrat(N, q_val)
        self.Q_vals = tuple(_as_cycrat(N, v) for v in Q_vals)
        self.d = len(self.Q_vals)
        if not self.q:
            raise ValueError("q must be invertible (nonzero)")
        if not all(self.Q_vals):
            raise ValueError("all Q_i must be invertible (nonzero)")
        if not self.Q_vals:
            raise ValueError("need at least one parameter Q_1")
        self.zero = CycRat.from_rational(N, 0)
        self.one = CycRat.from_rational(N, 1)
        self._hash = hash(("SpecPoint", p, N, self.q, self.Q_vals))

    def scalar(self, value) -> CycRat:
        """value in Q(zeta_N); a CycRat of order m | N is embedded."""
        if isinstance(value, RatFunc):
            raise TypeError("a rational function is not a scalar at a point")
        if isinstance(value, CycRat):
            return _embed(self.N, value)
        return _as_cycrat(self.N, value)

    def eps_pow(self, k: int) -> CycRat:
        return _zeta_powers(self.N)[((self.N // self.p) * k) % self.N]

    def q_power(self, k: int) -> CycRat:
        return self.q ** k

    def rational(self, value: CycRat):
        return value.rational_value() if value.is_rational() else None

    def Q_power(self, i: int, k: int) -> CycRat:
        return self.Q(i) ** k

    def Q(self, i: int) -> CycRat:
        if not 1 <= i <= self.d:
            raise ValueError(f"Q_{i} out of range for d={self.d}")
        return self.Q_vals[i - 1]

    def to_json(self) -> dict:
        def enc(v: CycRat):
            coeffs = _coeff_json(v)
            return coeffs[0] if v.is_rational() else coeffs

        return {"p": self.p, "N": self.N, "q": enc(self.q),
                "Q": [enc(v) for v in self.Q_vals]}

    @staticmethod
    def from_json(data: dict) -> "SpecPoint":
        """The point of ``to_json``: each coordinate an int, an "a/b"
        string, an [a, b] pair or a list of pairs (power-basis
        coordinates).  A float or a bool is refused: neither is exact."""
        N = data["N"]

        def dec(v):
            if isinstance(v, (bool, float)):
                raise ValueError(f"a coordinate must be exact, got {v!r}")
            if not isinstance(v, (list, tuple)):
                return Fraction(v)
            if v and isinstance(v[0], (list, tuple)):
                return CycRat.make(N, [dec(c) for c in v])
            a, b = v
            return dec(a) / dec(b)

        return SpecPoint(data["p"], N, dec(data["q"]),
                         [dec(v) for v in data["Q"]])

    def __eq__(self, other):
        return (isinstance(other, SpecPoint)
                and (self.p, self.N, self.q, self.Q_vals)
                == (other.p, other.N, other.q, other.Q_vals))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SpecPoint(p={self.p}, N={self.N}, q={self.q!r}, Q={list(self.Q_vals)!r})"


def is_separated(pt: SpecPoint, n: int) -> bool:
    """Whether prod_{i,j<=d} prod_{|k|<n} prod_{0<t<p} (Q_i - eps^t q^k Q_j) != 0."""
    d, p = pt.d, pt.p
    q_powers = [pt.q_power(k) for k in range(-(n - 1), n)]
    for i in range(1, d + 1):
        Qi = pt.Q(i)
        for j in range(1, d + 1):
            Qj = pt.Q(j)
            for qk in q_powers:
                for t in range(1, p):
                    if not (Qi - pt.eps_pow(t) * qk * Qj):
                        return False
    return True


def is_semisimple(pt: SpecPoint, n: int) -> bool:
    """Semisimplicity criterion for the parameter list (eps^1 Q, ..., eps^p Q).

    Requires q^k rho_i != rho_j for all i < j, |k| < n, and the partial
    q-factorials 1 + q + ... + q^(i-1) nonzero for i <= n.  Together with
    separation this guarantees seminormal denominators never vanish.
    """
    # q = 1 collapses same-component content differences q^a - q^b even
    # though [i]_q stays nonzero, so it is excluded for n >= 2
    if n >= 2 and pt.q == pt.one:
        return False
    rho = [pt.eps_pow(u) * pt.Q(c)
           for u in range(1, pt.p + 1) for c in range(1, pt.d + 1)]
    r = len(rho)
    q_powers = [pt.q_power(k) for k in range(-(n - 1), n)]
    for i in range(r):
        for j in range(i + 1, r):
            for qk in q_powers:
                if not (qk * rho[i] - rho[j]):
                    return False
    # partial q-integers [i]_q = 1 + q + ... + q^(i-1)
    qint = pt.one
    qpow = pt.one
    for i in range(2, n + 1):
        qpow = qpow * pt.q
        qint = qint + qpow
        if not qint:
            return False
    return True


# draws before sample_point gives up; on the default range a draw is
# rejected with probability well under 1/1000
SAMPLE_ATTEMPTS = 1000


def sample_point(p: int, d: int, n: int, rng, lo: int = 2, hi: int = 10 ** 6) -> SpecPoint:
    """Random separated, semisimple SpecPoint with integer coordinates in [lo, hi].

    Raises ValueError when SAMPLE_ATTEMPTS draws in a row are rejected.
    """
    for _ in range(SAMPLE_ATTEMPTS):
        q = rng.randint(lo, hi)
        Qs = [rng.randint(lo, hi) for _ in range(d)]
        pt = SpecPoint(p, p, q, Qs)
        if is_separated(pt, n) and is_semisimple(pt, n):
            return pt
    raise ValueError(
        f"no separated semisimple point for p={p}, d={d}, n={n} with "
        f"coordinates in [{lo}, {hi}] after {SAMPLE_ATTEMPTS} draws")


def _coeff_json(c: CycRat) -> list:
    """The power-basis coordinates as [numerator, denominator] pairs in
    lowest terms, read off the integers: one gcd per coordinate, none
    over the denominator 1."""
    den = c.den
    if den == 1:
        return [[a, 1] for a in c.nums]
    out = []
    for a in c.nums:
        g = gcd(a, den)
        out.append([a // g, den // g])
    return out


def laurent_to_json(poly: LaurentPoly) -> list:
    return [[list(e), _coeff_json(c)] for e, c in poly.sorted_terms()]


def ratfunc_to_json(value: RatFunc) -> dict:
    """A symbolic value as its ring and num/den, both multiplied out,
    shifted by their common content and scaled so that the
    denominator's lex-least coefficient is 1; zero is 0/1."""
    num, den = value._expanded()
    den = _multiply_out(LaurentPoly.constant(value.order, value.nvars, 1), den)
    if num:
        vec = tuple(-min(a, b) for a, b in zip(num.content(), den.content()))
        if any(vec):
            num, den = num.shift(vec), den.shift(vec)
        lead = den.terms[min(den.terms)]
        if not _is_one(lead):
            inv = lead.inverse()
            num, den = num.scale(inv), den.scale(inv)
    return {"order": value.order, "nvars": value.nvars,
            "num": laurent_to_json(num), "den": laurent_to_json(den)}


def scalar_to_json(value) -> dict:
    """A value of either backend, or a rational, with enough context to
    rebuild it exactly; a symbolic value is written multiplied out."""
    if isinstance(value, RatFunc):
        return {"kind": "ratfunc", **ratfunc_to_json(value)}
    if isinstance(value, CycRat):
        return {"kind": "cycrat", "order": value.order,
                "coeffs": _coeff_json(value)}
    value = Fraction(value)
    return {"kind": "rational",
            "value": [value.numerator, value.denominator]}
