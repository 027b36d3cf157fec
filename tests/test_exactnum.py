import json
import operator
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclohecke import exactnum
from cyclohecke.cli import scalar_to_json
from cyclohecke.exactnum import (
    CycRat,
    GenericField,
    LaurentPoly,
    PoleError,
    RatFunc,
    SpecPoint,
    cyclotomic_poly,
    eps_pow,
    generic_field,
    is_separated,
    is_semisimple,
    ratfunc_to_json,
    sample_point,
)
from cyclohecke.matrices import rows_mul, rows_rank

from helpers import (
    RatFuncField,
    RefRatFunc,
    mat_rows,
    monomial,
    multiply_out_by_passes,
    multiply_out_by_products,
    reference_json,
    scalar_from_json,
    specialize,
    to_reference,
)


# ---------------------------------------------------------------------------
# cyclotomic polynomials

KNOWN_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("m,coeffs", sorted(KNOWN_CYCLOTOMIC.items()))
def test_cyclotomic_poly_known(m, coeffs):
    assert cyclotomic_poly(m) == coeffs


def test_cyclotomic_product():
    # prod_{d | m} Phi_d = x^m - 1
    for m in (6, 10, 12):
        prod = [Fraction(1)]
        for d in range(1, m + 1):
            if m % d:
                continue
            phi = cyclotomic_poly(d)
            new = [Fraction(0)] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    new[i + j] += a * b
            prod = new
        expect = [Fraction(0)] * (m + 1)
        expect[0] = Fraction(-1)
        expect[m] = Fraction(1)
        assert prod == expect


# ---------------------------------------------------------------------------
# roots of unity

def test_eps_pow_examples():
    assert eps_pow(2, -1) == CycRat.from_rational(2, -1)
    assert eps_pow(4, 2) == CycRat.from_rational(4, -1)
    assert eps_pow(3, 3) == CycRat.from_rational(3, 1)


def test_eps_pow_invalid_order():
    with pytest.raises(ValueError, match="invalid order"):
        eps_pow(1, 0)
    # the generic field is GenericField itself, defined at p = 1 too
    assert generic_field is GenericField
    assert generic_field(1, 1).eps_pow(5) == generic_field(1, 1).one
    with pytest.raises(ValueError, match="invalid order"):
        generic_field(0, 1)


@given(st.integers(2, 12), st.integers(-30, 30))
def test_eps_pow_inverse(p, k):
    assert eps_pow(p, k) * eps_pow(p, p - k) == CycRat.from_rational(p, 1)


@given(st.integers(2, 12), st.integers(-20, 20), st.integers(-20, 20))
def test_eps_pow_hom(p, j, k):
    assert eps_pow(p, j) * eps_pow(p, k) == eps_pow(p, j + k)


@pytest.mark.parametrize("p, N", [(2, 2), (3, 6), (4, 8), (3, 9)])
def test_specpoint_eps_pow_matches_powers_of_zeta(p, N):
    pt = SpecPoint(p, N, 2, [3])
    zeta = eps_pow(N, 1)
    for k in range(-N, 2 * N):
        assert pt.eps_pow(k) == zeta ** ((N // p) * k % N)
    assert pt.scalar(eps_pow(p, 1)) == pt.eps_pow(1)


def test_zeta_satisfies_cyclotomic():
    for m in (2, 3, 4, 5, 6, 8, 12):
        z = eps_pow(m, 1)
        phi = cyclotomic_poly(m)
        acc = CycRat.from_rational(m, 0)
        for c in reversed(phi):
            acc = acc * z + CycRat.from_rational(m, c)
        assert not acc


# ---------------------------------------------------------------------------
# CycRat field axioms

def cycrats(order):
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    deg = len(cyclotomic_poly(order)) - 1
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: CycRat.make(order, cs)
    )


def cycrat_triples(order):
    return st.tuples(cycrats(order), cycrats(order), cycrats(order))


@settings(max_examples=120)
@given(st.integers(1, 12).flatmap(cycrat_triples))
def test_cycrat_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b) == -(b - a)
    assert (a - b) + b == a
    assert 1 - a == -(a - 1)


def _is_canonical(x):
    deg = len(cyclotomic_poly(x.order)) - 1
    return (len(x.nums) == deg and all(type(v) is int for v in x.nums)
            and type(x.den) is int and x.den >= 1
            and gcd(x.den, *x.nums) == 1)


@settings(max_examples=120)
@given(st.integers(1, 12).flatmap(cycrat_triples))
def test_cycrat_canonical_form(abc):
    a, b, c = abc
    m = a.order
    values = [a, b, c, a + b, a - b, b - a, 1 - a, a * b, a * b - b * a,
              a + b - b, CycRat.from_rational(m, Fraction(-6, 4)),
              CycRat.from_rational(m, 0)]
    if a:
        values += [a.inverse(), b / a, a ** -2]
    pt = SpecPoint(2, 2 * m, 2, [3])
    values += [pt.scalar(v) for v in values]
    for v in values:
        assert _is_canonical(v), v
    # zero is (0, ..., 0)/1 however it was reached
    zero = a - a
    assert zero.nums == (0,) * len(a.nums) and zero.den == 1
    assert (a * 0).den == 1 and not a * 0


@settings(max_examples=120)
@given(st.integers(1, 12).flatmap(cycrat_triples))
def test_cycrat_equal_values_have_equal_forms(abc):
    a, b, c = abc
    for x, y in [((a * b) * c, a * (b * c)), ((a + b) - c, a - (c - b)),
                 (a * (b + c), b * a + c * a), (a * a - b * b, (a + b) * (a - b)),
                 (CycRat.make(a.order, a.coeffs), a)]:
        assert x == y and hash(x) == hash(y)
        assert (x.nums, x.den) == (y.nums, y.den)
    if b:
        x, y = (a / b) * b, a
        assert x == y and hash(x) == hash(y)
    # values that differ only in the denominator differ
    assert (a * Fraction(1, 2) != a) == bool(a)
    assert CycRat.from_rational(a.order, Fraction(1, 2)) \
        != CycRat.from_rational(a.order, Fraction(1, 3))


def _convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _large_operands(seed: int = 25) -> list:
    """Seeded operand pairs at the orders with phi(m) = 2: numerators
    near 10^6 over denominators above 1, and zero on either side."""
    rng = random.Random(seed)
    pairs = []
    for m in (3, 4, 6):
        def draw():
            return CycRat.make(m, [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                            rng.randint(2, 10 ** 3))
                                   for _ in range(2)])
        zero = CycRat.from_rational(m, 0)
        pairs += [(zero, draw()), (draw(), zero), (zero, zero)]
        pairs += [(draw(), draw()) for _ in range(12)]
    return pairs


def _with_examples(cases):
    def attach(test):
        for case in cases:
            test = example(case)(test)
        return test
    return attach


@_with_examples(_large_operands())
@settings(max_examples=120)
@given(st.integers(1, 12).flatmap(
    lambda m: st.tuples(cycrats(m), cycrats(m))))
def test_product_matches_long_division(ab):
    a, b = ab
    expect = _long_division(a.order, _convolve(a.coeffs, b.coeffs))
    got, want = a * b, CycRat.make(a.order, expect)
    assert got.coeffs == expect
    # the canonical form, not only the value
    assert (got.nums, got.den) == (want.nums, want.den)


# orders 1..12 cover Galois groups of size 1, 2, 4 and 6
@settings(max_examples=120)
@given(st.integers(1, 12).flatmap(cycrats))
def test_cycrat_inverse(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == CycRat.from_rational(a.order, 1)


def test_cycrat_inverse_trips_on_injected_fault(monkeypatch):
    # a conjugate that is not one leaves the norm irrational
    a = CycRat.make(3, [1, 2])
    monkeypatch.setattr(exactnum, "_substitute",
                        lambda order, nums, step=1: (1, 1))
    with pytest.raises(RuntimeError, match="internal: "):
        a.inverse()


def _long_division(m, coeffs):
    """Remainder of sum_j coeffs[j] x^j on division by Phi_m."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs] + [Fraction(0)] * deg
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        for j in range(deg + 1):
            work[i - deg + j] -= c * phi[j]
    return tuple(work[:deg])


@settings(max_examples=60)
@given(st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.fractions(-5, 5, max_denominator=4),
                         max_size=3 * m))))
def test_make_matches_long_division(case):
    m, coeffs = case
    assert CycRat.make(m, coeffs).coeffs == _long_division(m, coeffs)


@pytest.mark.parametrize("m, N", [(2, 4), (3, 6), (3, 9), (4, 8), (4, 12)])
def test_embed_is_a_field_embedding(m, N):
    pt = SpecPoint(2 if N % 2 == 0 else 3, N, 2, [3])
    assert pt.scalar(eps_pow(m, 1)) == eps_pow(N, 1) ** (N // m)
    rng = random.Random(m * N)
    deg = len(cyclotomic_poly(m)) - 1
    for _ in range(10):
        a, b = (CycRat.make(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                for _ in range(deg)]) for _ in range(2))
        assert pt.scalar(a + b) == pt.scalar(a) + pt.scalar(b)
        assert pt.scalar(a * b) == pt.scalar(a) * pt.scalar(b)


def test_cycrat_mixed_order_rejected():
    a, b = eps_pow(3, 1), eps_pow(4, 1)
    for op in (operator.add, operator.mul, operator.sub, operator.eq):
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            op(a, b)
    # rational operands still pass through coercion
    assert 3 * a == a + a + a == CycRat.make(3, [0, 3])
    assert a * Fraction(1, 2) == CycRat.make(3, [0, Fraction(1, 2)])
    assert CycRat.from_rational(4, Fraction(1, 2)) == Fraction(1, 2)
    assert CycRat.from_rational(4, Fraction(1, 2)) != Fraction(1, 3)
    assert a != Fraction(1, 2) and 1 + a == CycRat.make(3, [1, 1])


def test_cycrat_rational_detection():
    z = eps_pow(4, 1)
    assert not z.is_rational()
    assert (z * z).is_rational()
    assert (z * z).rational_value() == Fraction(-1)


# ---------------------------------------------------------------------------
# generic field: Laurent polynomials and rational functions

@pytest.mark.parametrize("p, d", [(1, 1), (2, 1), (3, 2)])
def test_generic_field_values_are_factored(p, d):
    K = GenericField(p, d)
    values = [K.scalar(3), K.scalar(Fraction(-1, 2)), K.zero, K.one,
              K.eps_pow(1), K.q_power(-2), K.q, K.Q_power(d, 3), K.Q(1)]
    for value in values:
        if not isinstance(value, RatFunc):
            pytest.fail(f"{value!r} is not a RatFunc")
        if value.poly is not None or value.num or value.den:
            pytest.fail(f"{value!r} is not a unit times a monomial")
    # a difference of two monomials is one binomial; a sum multiplies out
    assert (K.q - K.one).poly is None
    assert (K.q + K.one).poly is not None
    with pytest.raises(ValueError):
        K.Q_power(d + 1, 1)
    with pytest.raises(ValueError):
        K.scalar(eps_pow(p + 1, 1))


def test_generic_field_checks():
    with pytest.raises(ValueError):
        GenericField(0, 1)
    with pytest.raises(ValueError):
        GenericField(2, 0)
    assert GenericField(2, 1) == generic_field(2, 1)
    assert hash(GenericField(2, 1)) == hash(generic_field(2, 1))
    assert GenericField(2, 1) != GenericField(2, 2)
    assert repr(GenericField(3, 2)) == "GenericField(p=3, d=2)"

def test_field_ops_examples():
    K = generic_field(2, 1)
    q = K.q
    one = K.one
    assert (q - 1) / (q - 1) == one
    assert (q + 1) * (q - 1) == q * q - 1
    assert (q * q - 1) / (q - 1) == q + 1


def test_ratfunc_unreduced_equality():
    K = generic_field(3, 2)
    q, Q1, Q2 = K.q, K.Q(1), K.Q(2)
    lhs = (q * q - Q1 * Q1) / (q - Q1)
    rhs = q + Q1
    assert lhs == rhs
    assert lhs != rhs + Q2


def test_ratfunc_negative_powers():
    K = generic_field(2, 1)
    q = K.q
    assert K.q_power(-2) * q * q == K.one
    assert q / q == K.one


def test_ratfunc_zero_division():
    K = generic_field(2, 1)
    with pytest.raises(ZeroDivisionError):
        K.one / K.zero
    with pytest.raises(ZeroDivisionError):
        (K.q - K.q).inverse()


def genfield_elems(p, d):
    K = generic_field(p, d)
    small = st.integers(-3, 3)
    exps = st.tuples(*([st.integers(-2, 2)] * (d + 1)))

    def build(pairs):
        acc = K.zero
        for exp, c in pairs:
            term = K.scalar(c)
            term = term * K.q_power(exp[0])
            for i in range(d):
                term = term * K.Q_power(i + 1, exp[i + 1])
            acc = acc + term
        return acc

    return st.lists(st.tuples(exps, small), min_size=0, max_size=3).map(build)


@settings(max_examples=30, deadline=None)
@given(genfield_elems(2, 1), genfield_elems(2, 1), genfield_elems(2, 1))
def test_ratfunc_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# specialization

def test_specialize_q():
    K = generic_field(2, 1)
    pt = SpecPoint(p=2, N=2, q_val=Fraction(2), Q_vals=(Fraction(1),))
    assert specialize(K.q, pt) == pt.scalar(2)


def test_specialize_eps_mixes_in():
    # Q1 - eps*Q1 at p=2, Q1=3: eps = -1 so the value is 6.
    K = generic_field(2, 1)
    f = K.Q(1) - K.eps_pow(1) * K.Q(1)
    pt = SpecPoint(p=2, N=2, q_val=Fraction(5), Q_vals=(Fraction(3),))
    assert specialize(f, pt) == pt.scalar(6)


def test_specialize_pole():
    K = generic_field(2, 1)
    f = K.one / (K.q - 1)
    pt = SpecPoint(p=2, N=2, q_val=Fraction(1), Q_vals=(Fraction(1),))
    with pytest.raises(PoleError):
        specialize(f, pt)


@settings(max_examples=30, deadline=None)
@given(genfield_elems(2, 1), genfield_elems(2, 1))
def test_specialize_ring_hom(a, b):
    pt = SpecPoint(p=2, N=2, q_val=Fraction(3), Q_vals=(Fraction(2),))
    assert specialize(a + b, pt) == specialize(a, pt) + specialize(b, pt)
    assert specialize(a * b, pt) == specialize(a, pt) * specialize(b, pt)


# ---------------------------------------------------------------------------
# separation and semisimplicity of specialization points

def test_is_separated_basic():
    pt = SpecPoint(p=2, N=2, q_val=Fraction(2), Q_vals=(Fraction(1),))
    assert is_separated(pt, 3)
    bad = SpecPoint(p=2, N=2, q_val=Fraction(-1), Q_vals=(Fraction(1),))
    # factor Q1 - eps*q^0*Q1 = 1 - (-1)*1 is fine; the killer is
    # Q1 - eps*q*Q1 = 1 - (-1)(-1) = 0.
    assert not is_separated(bad, 3)


def test_is_separated_single_orbit():
    # one parameter orbit under eps: d=1, any separated q works
    pt = SpecPoint(p=3, N=3, q_val=Fraction(2), Q_vals=(Fraction(1),))
    assert is_separated(pt, 2)


def test_is_separated_explicit_product():
    # cross-check against the defining product evaluated directly
    pt = SpecPoint(p=2, N=2, q_val=Fraction(3), Q_vals=(Fraction(2), Fraction(7)))
    n = 3
    prod = pt.one
    for i in range(1, 3):
        for j in range(1, 3):
            for k in range(-(n - 1), n):
                for t in range(1, 2):
                    prod = prod * (
                        pt.Q(i) - pt.eps_pow(t) * pt.q_power(k) * pt.Q(j)
                    )
    assert is_separated(pt, n) == bool(prod)


def test_separated_but_not_semisimple():
    # Q2 = q*Q1 breaks semisimplicity but no eps^t (t != 0 mod p)
    # factor vanishes, so separation still holds.
    pt = SpecPoint(p=2, N=2, q_val=Fraction(2), Q_vals=(Fraction(3), Fraction(6)))
    assert is_separated(pt, 2)
    assert not is_semisimple(pt, 2)


def test_semisimple_rejects_either_order_of_a_q_shift():
    # Q1 = q*Q2 as well as Q2 = q*Q1: the check runs over negative
    # powers of q too, not only over the pairs in one order
    assert not is_semisimple(SpecPoint(2, 2, 2, [6, 3]), 2)
    assert is_semisimple(SpecPoint(2, 2, 2, [7, 3]), 2)


def test_semisimple_rejects_root_of_unity_q():
    pt = SpecPoint(p=2, N=2, q_val=Fraction(-1), Q_vals=(Fraction(3),))
    assert not is_semisimple(pt, 2)


def test_separation_rejects_an_eps_twisted_q_shift():
    # Q_1 = eps q Q_2 with eps = -1: -15 = -(3 * 5)
    assert not is_separated(SpecPoint(2, 2, 3, [-15, 5]), 2)


def test_semisimple_rejects_a_vanishing_q_integer_alone():
    # q a primitive cube root of unity makes [3]_q = 0; the point is
    # separated, so only the q-integers reject it
    pt = SpecPoint(2, 6, eps_pow(6, 2), [2])
    assert is_separated(pt, 3)
    assert not is_semisimple(pt, 3)


def test_sample_point_is_separated_and_semisimple():
    # on a narrow range many draws have Q_i = q^k Q_j and must be
    # rejected, so a sampler that skipped either test would return some
    for p, dim, n in ((2, 1, 3), (3, 2, 3), (4, 2, 2), (2, 2, 3), (3, 2, 2)):
        for lo, hi in ((2, 5), (2, 10 ** 6)):
            for seed in range(40):
                pt = sample_point(p, dim, n, random.Random(seed), lo, hi)
                assert pt.p == p and pt.d == dim
                assert is_separated(pt, n), (p, dim, n, seed, pt.to_json())
                assert is_semisimple(pt, n), (p, dim, n, seed, pt.to_json())


def test_sample_point_deterministic():
    a = sample_point(2, 2, 3, random.Random(11))
    b = sample_point(2, 2, 3, random.Random(11))
    assert a.to_json() == b.to_json() == {
        "p": 2, "N": 2, "q": [474356, 1], "Q": [[907798, 1], [586965, 1]]}
    # pinned draws, rejections included: on [2, 3] a draw with Q_1 = Q_2
    # is not semisimple
    rng = random.Random(3)
    drawn = [sample_point(2, 2, 3, rng, lo=2, hi=3).to_json()
             for _ in range(4)]
    assert [(pt["q"], pt["Q"]) for pt in drawn] == [
        ([2, 1], [[2, 1], [3, 1]]), ([3, 1], [[3, 1], [2, 1]]),
        ([2, 1], [[3, 1], [2, 1]]), ([3, 1], [[2, 1], [3, 1]])]


def test_sample_point_gives_up_after_attempt_cap():
    # q = 1 is never semisimple for n >= 2, so every draw is rejected
    with pytest.raises(ValueError,
                       match=r"p=2, d=1, n=3 with coordinates in \[1, 1\]"):
        sample_point(2, 1, 3, random.Random(0), lo=1, hi=1)


# ---------------------------------------------------------------------------
# SpecPoint JSON

def test_specpoint_json_roundtrip():
    pt = SpecPoint(p=2, N=2, q_val=Fraction(5, 2), Q_vals=(Fraction(3), Fraction(7)))
    data = pt.to_json()
    assert data["p"] == 2 and data["N"] == 2
    assert data["q"] == [5, 2]
    back = SpecPoint.from_json(data)
    assert back.q == pt.q and back.Q(2) == pt.Q(2)


def test_specpoint_json_cyclotomic_values():
    # q = zeta_4 inside N = 4: serialized as a coefficient array
    z = eps_pow(4, 1)
    pt = SpecPoint(p=2, N=4, q_val=z, Q_vals=(Fraction(3),))
    data = pt.to_json()
    assert isinstance(data["q"][0], list)
    back = SpecPoint.from_json(data)
    assert back.q == pt.q


def test_specpoint_json_reads_only_exact_coordinates():
    # 0.1 would read as 3602879701896397/36028797018963968 and true as 1
    for q in (0.1, True, 2.0, [1, 0.5], [True, 2], [[1, 2], [0.5, 1]]):
        with pytest.raises(ValueError, match="must be exact"):
            SpecPoint.from_json({"p": 2, "N": 4, "q": q, "Q": [3]})
    with pytest.raises(ValueError, match="must be exact"):
        SpecPoint.from_json({"p": 2, "N": 2, "q": 2, "Q": [False]})
    for q, want in ((5, 5), ("5/2", Fraction(5, 2)), ([5, 2], Fraction(5, 2)),
                    ([[0, 1], [1, 1]], eps_pow(4, 1))):
        pt = SpecPoint.from_json({"p": 2, "N": 4, "q": q, "Q": [3]})
        assert pt.q == pt.scalar(want)


def test_field_scalar_reads_every_value_kind():
    K, pt = GenericField(2, 1), SpecPoint(2, 4, 2, [3])
    assert K.scalar(K.q) is K.q
    with pytest.raises(ValueError, match="different rings"):
        K.scalar(GenericField(2, 2).q)
    with pytest.raises(TypeError, match="rational function"):
        pt.scalar(K.q)
    with pytest.raises(ValueError, match="cannot embed order 3"):
        pt.scalar(eps_pow(3, 1))
    assert pt.scalar(eps_pow(2, 1)) == pt.eps_pow(1)
    assert pt.scalar(Fraction(1, 2)) == CycRat.from_rational(4, Fraction(1, 2))
    for field in (K, pt):
        for bad in (1.5, [1, 2], "1", None):
            with pytest.raises(TypeError):
                field.scalar(bad)
        # built once, with the field
        assert field.zero is field.zero and field.one is field.one
    assert K.to_json() == {"generic": {"p": 2, "d": 1}}


def _through_json(data):
    return json.loads(json.dumps(data))


@settings(max_examples=80)
@given(st.integers(1, 12).flatmap(cycrats))
def test_cycrat_scalar_json_round_trip(a):
    data = _through_json(scalar_to_json(a))
    back = scalar_from_json(data)
    assert back == a and back.coeffs == a.coeffs
    assert scalar_to_json(back) == data


def laurents(order, nvars):
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    coeffs = cycrats(order).filter(bool)
    return st.dictionaries(exps, coeffs, max_size=3).map(
        lambda terms: LaurentPoly(order, nvars, terms))


def binomial_multisets(order, nvars):
    exps = st.tuples(*[st.integers(-2, 2)] * nvars).filter(
        lambda m: any(m) and next(e for e in m if e) > 0)
    keys = st.tuples(exps, cycrats(order).filter(bool))
    return st.dictionaries(keys, st.integers(1, 2), max_size=3).map(Counter)


def ratfuncs(order, nvars):
    return st.tuples(laurents(order, nvars),
                     binomial_multisets(order, nvars)).map(
        lambda nd: exactnum._over(*nd))


@settings(max_examples=60)
@given(st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
    lambda on: ratfuncs(*on)))
def test_ratfunc_scalar_json_round_trip(f):
    # the JSON holds the value multiplied out and normalized as the
    # cross-multiplying reference normalizes it
    data = _through_json(scalar_to_json(f))
    back = scalar_from_json(data)
    assert back == f
    ref = to_reference(f)
    assert (back.num.terms, back.den.terms) == (ref.num.terms, ref.den.terms)
    assert reference_json(back) == data


def irrational_points():
    def draw(pn):
        p, N = pn
        nonzero = cycrats(N).filter(bool)
        return st.builds(
            lambda q, Qs: SpecPoint(p, N, q, Qs),
            nonzero.filter(lambda c: not c.is_rational()),
            st.lists(nonzero, min_size=1, max_size=3))
    return st.sampled_from(
        [(2, 4), (3, 3), (2, 6), (3, 6), (4, 8), (3, 9), (5, 5), (4, 12)]
    ).flatmap(draw)


@settings(max_examples=60)
@given(irrational_points())
def test_specpoint_json_round_trip_irrational(pt):
    data = _through_json(pt.to_json())
    back = SpecPoint.from_json(data)
    assert back == pt
    assert back.to_json() == data


def test_specpoint_validation():
    with pytest.raises(ValueError):
        SpecPoint(p=1, N=1, q_val=Fraction(2), Q_vals=(Fraction(1),))
    with pytest.raises(ValueError):
        SpecPoint(p=2, N=3, q_val=Fraction(2), Q_vals=(Fraction(1),))
    with pytest.raises(ValueError):
        SpecPoint(p=2, N=2, q_val=Fraction(0), Q_vals=(Fraction(1),))
    with pytest.raises(ValueError):
        SpecPoint(p=2, N=2, q_val=Fraction(2), Q_vals=())


# ---------------------------------------------------------------------------
# factored closed-form scalars

def count_expansions(monkeypatch) -> list:
    calls = []
    real = RatFunc._expanded

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(RatFunc, "_expanded", counted)
    return calls


def test_factored_binomials_are_lex_positive():
    V = GenericField(3, 1)
    one = CycRat.from_rational(3, 1)
    # q^-1 - 1 = -q^-1 (q - 1)
    x = V.q_power(-1) - V.one
    assert x.unit == -one and x.mono == (-1, 0)
    assert dict(x.num) == {((1, 0), one): 1} and not x.den
    # eps Q_1 q^-2 - 1 = -eps Q_1 q^-2 (eps^-1 q^2 Q_1^-1 - 1)
    y = V.eps_pow(1) * V.Q_power(1, 1) * V.q_power(-2) - V.one
    assert y.mono == (-2, 1) and y.unit == -eps_pow(3, 1)
    assert dict(y.num) == {((2, -1), eps_pow(3, 2)): 1}
    # a constant minus one stays in the unit
    z = V.eps_pow(1) - V.one
    assert not z.num and z.unit == eps_pow(3, 1) - 1


def test_factored_equal_multisets_decide_without_expanding(monkeypatch):
    V = GenericField(2, 2)
    calls = count_expansions(monkeypatch)
    x = V.eps_pow(1) * V.Q_power(1, 1) / V.Q_power(2, 1) - V.one
    a = (V.q - V.one) * x
    # q^-1 - 1 = -q^-1 (q - 1)
    assert a == -V.q * (V.q_power(-1) - V.one) * x
    assert a / x == V.q - V.one
    assert (a ** 3) / (a ** 2) == a
    assert not calls


def test_factored_fallback_proves_equal_values(monkeypatch):
    # q^2 - 1 = -(q - 1)((-q) - 1): one binomial against two
    V = GenericField(2, 1)
    lhs = V.q_power(2) - V.one
    rhs = -(V.q - V.one) * (-V.q - V.one)
    assert lhs.num != rhs.num
    calls = count_expansions(monkeypatch)
    assert lhs == rhs and rhs == lhs
    assert calls


def test_factored_unequal_values_compare_unequal():
    V = GenericField(2, 1)
    x = V.q - V.one
    assert x != V.q_power(2) - V.one
    assert x != V.eps_pow(1) * x
    assert x != x * V.q
    assert x != 0 and V.scalar(0) == V.one - V.one
    assert V.q - V.one != V.q + V.one


def test_factored_compares_with_ratfunc_both_ways():
    F = RatFuncField(2, 1)
    V = GenericField(2, 1)
    x = (V.eps_pow(1) * V.q * V.Q_power(1, 1) - V.one) / (V.q - V.one)
    y = (F.eps_pow(1) * F.q * F.Q(1) - F.one) / (F.q - F.one)
    assert x == y and y == x
    assert not (x != y) and not (y != x)
    z = y + F.one
    assert x != z and z != x
    # any mix with the reference is a reference value; a sum of package
    # values is a RatFunc
    assert isinstance(x * F.q, RefRatFunc) and isinstance(F.q * x, RefRatFunc)
    assert isinstance(x + 1, RatFunc) and isinstance(F.one - x, RefRatFunc)
    assert x * F.q == y * F.q
    assert x + 1 == z and z == x + 1 and x + 2 != z


def test_factored_expands_to_the_multiplied_out_ratfunc():
    F = RatFuncField(3, 2)
    V = GenericField(3, 2)

    def build(K):
        value = K.eps_pow(2) * K.q_power(-3) * K.Q_power(2, 2)
        Q1, Q2 = K.Q_power(1, 1), K.Q_power(2, 1)
        value = value * (K.eps_pow(1) * K.q * Q1 / Q2 - K.one) ** 2
        value = value / (K.q_power(-1) * Q2 / Q1 - K.one)
        return -value / (K.q - K.one) ** 3

    x, y = build(V), build(F)
    assert x.poly is None
    assert scalar_to_json(x) == reference_json(y)
    # + 0 multiplies the numerator out into a poly over the same multiset
    assert (x + 0).poly is not None and (x + 0).den == x.den
    assert ratfunc_to_json(x) == ratfunc_to_json(x + 0)


def test_factored_zero_and_division():
    V = GenericField(2, 1)
    zero = V.q - V.q
    assert not zero and zero == 0 and zero == GenericField(2, 1).zero
    assert zero._expanded() == (LaurentPoly.zero(2, 2), Counter())
    with pytest.raises(ZeroDivisionError):
        V.one / zero
    x = V.q - V.one
    assert x ** 0 == V.one and not (x ** 0).num
    assert x ** -2 == V.one / (x * x)
    assert 2 * x == x + x and x * Fraction(1, 2) * 2 == x




def test_powers_of_closed_forms_only():
    V = GenericField(2, 1)
    x = V.Q(1) * (V.q - V.one) / (V.q * V.Q(1) - V.one)
    assert x.num and x.den
    # x^0 is one with empty multisets, not multisets of zero counts
    one = x ** 0
    assert one.poly is None and one == V.one
    assert not one.num and not one.den
    assert one.mono == (0, 0) and one.unit == 1
    assert x ** 2 == x * x and x ** -2 == V.one / (x * x)
    assert (x ** 2).num == x.num + x.num and (x ** -2).num == x.den + x.den
    # a value with a poly has no power, as no sum ever had
    s = V.q + V.one
    for k in (0, 1, 2, -1):
        with pytest.raises(TypeError):
            s ** k
        with pytest.raises(TypeError):
            (x * s) ** k


def test_factored_products_skip_unit_one(monkeypatch):
    V = GenericField(3, 2)
    x = V.eps_pow(1) * V.q - V.one
    y = V.Q(1) / (V.q - V.one)
    expect = [x * y, y * x, V.q * x, x * V.Q(2), V.one * V.one]
    calls = []
    product = CycRat.__mul__

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(CycRat, "__mul__", counted)
    # y, q, Q_2 and one have unit 1: no unit product is taken
    got = [x * y, y * x, V.q * x, x * V.Q(2), V.one * V.one]
    assert not calls
    assert got == expect
    assert (x * x).unit == x.unit * x.unit and calls


# ---------------------------------------------------------------------------
# sums: a Laurent numerator over the union of the binomial multisets

def test_sum_denominator_is_the_multiset_union():
    # 1/(q - 1) - q/(q - 1) = -1: the difference stays over one binomial,
    # not over the product (q - 1)^2 of the operands' denominators
    V = GenericField(2, 1)
    b = V.q - V.one
    r = V.one / b - V.q / b
    assert isinstance(r, RatFunc)
    assert sum(r.den.values()) == 1
    assert r == -1 and -1 == r and r.constant() == -1
    assert len(scalar_to_json(r)["den"]) == 2
    # over two different binomials the union holds both, once each
    c = V.q * V.Q(1) - V.one
    s = V.one / b + V.one / c + V.one / (b * c)
    assert s.den == b.num + c.num
    F = RatFuncField(2, 1)
    bf, cf = F.q - F.one, F.q * F.Q(1) - F.one
    assert s == F.one / bf + F.one / cf + F.one / (bf * cf)


def test_equal_values_with_different_multisets():
    # (q^2 - 1)/(q - 1) = q + 1, as a closed form, as a sum and across them
    V = GenericField(2, 2)
    b = V.q - V.one
    factored = (V.q_power(2) - V.one) / b
    summed = V.q + V.one
    over_b = (V.q_power(2) + V.scalar(-1)) / b
    assert factored.poly is None and over_b.poly is not None
    assert factored.den != summed.den and over_b.den != summed.den
    for x, y in ((factored, summed), (summed, over_b), (over_b, factored)):
        assert x == y and y == x and not (x != y)
        assert x != y * V.q and x != y + 1 and x * V.Q(2) != y
    assert scalar_to_json(summed) == scalar_to_json(V.q + 1)


def test_cancelling_sum_is_falsy_and_sparse_rows_drop_it():
    V = GenericField(2, 1)
    x = V.Q(1) / (V.q - V.one) + V.one
    zero = x - x
    assert not zero and zero == 0 and not zero.den
    assert not (x + (-1) * x) and x + x == 2 * x
    # the (0, 0) entry is x * 1 + x * (-1); rows_mul stores no zero
    one = V.one
    A = (((0, x), (1, x)), ((1, one),))
    B = (((0, one),), ((0, -one), (1, x)))
    assert rows_mul(A, B) == (((1, x * x),), ((0, -one), (1, x)))


def test_division_by_a_closed_form_or_a_sum():
    # a closed form is divided by through its inverse; a sum has none,
    # and divides only where the quotient is a Laurent polynomial
    V = GenericField(2, 1)
    s = V.q + V.one
    t = s * V.Q(1) / (V.q - V.one)
    assert t / (V.Q(1) + 0) == s / (V.q - V.one)
    assert (V.q_power(2) + V.q) / V.q == s
    assert 1 / (V.Q(1) + 0) == V.Q_power(1, -1)
    assert (s * s) / s == s and (s * V.q) / s == V.q
    with pytest.raises(NotImplementedError):
        s.inverse()
    # t / s = Q_1 / (q - 1) has a pole; 2 / s goes through / as well
    for num in (V.one, t, 2):
        with pytest.raises(ArithmeticError, match="inexact"):
            num / s
    # a zero sum, and a zero unit times a poly
    for zero in (s - s, s * 0):
        with pytest.raises(ZeroDivisionError):
            t / zero


def test_exact_laurent_division():
    V = GenericField(3, 2)
    a = V.eps_pow(1) * V.q * V.Q(2) + V.Q(1)
    b = V.q_power(-1) + V.eps_pow(2) * V.Q(1) * V.Q_power(2, 3)
    prod = (a * b).poly
    assert prod.divide_exact(b.poly) == a.poly
    assert prod.divide_exact(a.poly) == b.poly
    assert LaurentPoly.zero(3, 3).divide_exact(b.poly) == LaurentPoly.zero(3, 3)
    # / by a sum: numerators over different multisets are lifted to
    # their union first, and the quotient has no denominator
    x = a / (V.q - V.one)
    y = b / (V.q * V.Q(1) - V.one)
    assert x * y / (y / (V.q - V.one)) == a
    quotient = (a * b) / y
    assert quotient == a * (V.q * V.Q(1) - V.one) and not quotient.den
    assert (a * b) / b == a and a * (V.q - V.one) / (V.q - V.one) == a


def test_inexact_laurent_division_raises():
    V = GenericField(2, 2)
    a = V.q + V.one
    b = V.q + V.Q(1)
    with pytest.raises(ArithmeticError, match="inexact"):
        (a * a + V.one).poly.divide_exact(a.poly)
    with pytest.raises(ArithmeticError, match="inexact"):
        a.poly.divide_exact(b.poly)
    with pytest.raises(ArithmeticError, match="inexact"):
        V.one / a
    with pytest.raises(ArithmeticError, match="inexact"):
        b / a
    # a quotient with a pole is not a Laurent polynomial either
    with pytest.raises(ArithmeticError, match="inexact"):
        a / (a * (V.q - V.one))
    with pytest.raises(ZeroDivisionError):
        a / (a - a)
    with pytest.raises(ZeroDivisionError):
        a.poly.divide_exact(LaurentPoly.zero(2, 3))


def test_division_free_rank_of_a_generic_matrix():
    # row 3 = (q + 1) row 1 + row 2 / (q - Q_1): rank 2; every pivot has a
    # numerator of several terms, so an elimination that divided by it
    # would raise
    V = GenericField(2, 1)
    a = V.q + V.one
    c = V.one / (V.q - V.Q(1))
    r1 = [a, V.Q(1) + V.one, V.q_power(2)]
    r2 = [V.q + V.Q(1), V.one, V.q * a]
    r3 = [a * x + c * y for x, y in zip(r1, r2)]
    assert rows_rank(mat_rows([r1, r2, r3]), V.zero) == 2
    assert rows_rank(mat_rows([r1, r2, [x + V.one for x in r3]]),
                     V.zero) == 3
    assert rows_rank(mat_rows([r1, [a * x for x in r1]]), V.zero) == 1
    assert rows_rank(mat_rows([[V.zero] * 3] * 2), V.zero) == 0
    # rows of a block of a wider matrix: only the columns that hold an
    # entry are eliminated, and none of the entries is left out
    wide = (((4, a), (9, V.one)), ((4, a * a), (9, a)), ((7, c),))
    assert rows_rank(wide, V.zero) == 2
    assert rows_rank(wide[:1] + (((4, a), (9, V.one + c)),), V.zero) == 2


# ---------------------------------------------------------------------------
# the binomial kernel behind sums and the JSON form


def kernel_coefficients(order):
    """c in {1, -1, eps, eps^2, 2/3} of Q(zeta_order)."""
    eps = eps_pow(order, 1)
    return [CycRat.from_rational(order, 1), CycRat.from_rational(order, -1),
            eps, eps * eps, CycRat.from_rational(order, Fraction(2, 3))]


def random_lex_positive(rng, nvars):
    while True:
        m = tuple(rng.randint(-2, 2) for _ in range(nvars))
        if any(m) and next(e for e in m if e) > 0:
            return m


def random_cycrat(rng, order):
    """A nonzero element of Q(zeta_order) with small coordinates."""
    width = len(cyclotomic_poly(order)) - 1
    while True:
        c = CycRat.make(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(width)])
        if c:
            return c


def random_laurent(rng, order, nvars, terms):
    return LaurentPoly(order, nvars, {
        tuple(rng.randint(-2, 2) for _ in range(nvars)): random_cycrat(rng, order)
        for _ in range(terms)})


def random_binomials(rng, order, nvars, count):
    cs = kernel_coefficients(order)
    return Counter({(random_lex_positive(rng, nvars), rng.choice(cs)):
                    rng.randint(1, 3) for _ in range(count)})


def is_canonical(c):
    return c.den >= 1 and gcd(c.den, *c.nums) == 1


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_multiply_out_matches_generic_products(order):
    # zero polynomials, empty multisets, multiplicities up to 3, negative
    # exponents and c = 2/3 (a denominator) all occur in these draws
    rng = random.Random(order)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        poly = random_laurent(rng, order, nvars, rng.randint(0, 5))
        factors = random_binomials(rng, order, nvars, rng.randint(0, 3))
        out = exactnum._multiply_out(poly, factors)
        assert out == multiply_out_by_products(poly, factors)
        assert out == multiply_out_by_passes(poly, factors)
        assert all(c and is_canonical(c) for c in out.terms.values())


@pytest.mark.parametrize("order", [3, 4])
def test_multiply_out_cancels_terms(order):
    # (1 + c x^m + ... + (c x^m)^k) (c x^m - 1) = (c x^m)^(k+1) - 1: every
    # middle term cancels, also with the binomial taken k times
    one = CycRat.from_rational(order, 1)
    m, origin = (1, -1), (0, 0)
    for c in kernel_coefficients(order):
        for k in range(1, 4):
            poly = LaurentPoly(order, 2, {(j, -j): c ** j for j in range(k + 1)})
            out = exactnum._multiply_out(poly, Counter({(m, c): 1}))
            assert out.terms == {(k + 1, -k - 1): c ** (k + 1), origin: -one}
            ones = LaurentPoly(order, 2, {origin: one})
            out = exactnum._multiply_out(ones, Counter({(m, c): k}))
            assert out == multiply_out_by_products(ones, Counter({(m, c): k}))
    zero = LaurentPoly.zero(order, 2)
    assert exactnum._multiply_out(zero, Counter({(m, one): 3})) == zero


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_multiply_out_edge_cases(order):
    x, origin = (1, -1), (0, 0)
    poly = LaurentPoly(order, 2, {(-1, 2): eps_pow(order, 1),
                                  origin: CycRat.from_rational(order, Fraction(1, 2))})
    assert exactnum._multiply_out(poly, Counter()) == poly
    zero = LaurentPoly.zero(order, 2)
    two_thirds = CycRat.from_rational(order, Fraction(2, 3))
    assert exactnum._multiply_out(zero, Counter({(x, two_thirds): 2})) == zero
    for factors in (Counter({(x, two_thirds): 2}),
                    Counter({(x, two_thirds): 1, ((0, 1), eps_pow(order, 1)): 3})):
        out = exactnum._multiply_out(poly, factors)
        assert out == multiply_out_by_passes(poly, factors)
        assert all(is_canonical(c) for c in out.terms.values())


def test_multiply_out_cancels_after_reduction():
    # (eps x - 1)(eps^2 x - 1)(x - 1) = x^3 - 1 in Q(zeta_3): the middle
    # coefficients -(eps + eps^2) and eps + eps^2 are 1 and -1 only
    # because 1 + eps + eps^2 = 0
    one = CycRat.from_rational(3, 1)
    factors = Counter({((1,), eps_pow(3, 1)): 1, ((1,), eps_pow(3, 2)): 1,
                       ((1,), one): 1})
    out = exactnum._multiply_out(LaurentPoly.constant(3, 1, 1), factors)
    assert out.terms == {(3,): one, (0,): -one}
    two = Counter({((1,), eps_pow(3, 1)): 1, ((1,), eps_pow(3, 2)): 1})
    out = exactnum._multiply_out(LaurentPoly.constant(3, 1, 1), two)
    assert out.terms == {(2,): one, (1,): one, (0,): one}


@pytest.mark.parametrize("order", [3, 4])
def test_factored_json_matches_generic_products(order):
    rng = random.Random(10 + order)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        unit = random_cycrat(rng, order)
        mono = tuple(rng.randint(-3, 3) for _ in range(nvars))
        num = random_binomials(rng, order, nvars, rng.randint(0, 3))
        den = random_binomials(rng, order, nvars, rng.randint(0, 3))
        value = RatFunc(unit, mono, num, den)
        reference = RefRatFunc(
            multiply_out_by_products(
                monomial(order, nvars, mono, unit), num),
            multiply_out_by_products(LaurentPoly.constant(order, nvars, 1), den))
        assert scalar_to_json(value) == reference_json(reference)
