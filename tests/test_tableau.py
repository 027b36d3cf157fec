import json
from fractions import Fraction
from math import factorial

import pytest

from cyclohecke.combin import Multipartition, enumerate_all
from cyclohecke.exactnum import PoleError, SpecPoint, generic_field
from cyclohecke.seminormal import SeminormalRep
from cyclohecke.tableau import (
    StandardTableau,
    beta_coeff,
    content,
    content_exponents,
    count_std,
    enumerate_std,
)

from helpers import is_standard, shift_tableau, superstandard, swap


def mp(p, d, comps):
    return Multipartition(p, d, comps)


# ---------------------------------------------------------------------------
# enumeration and the superstandard tableau

def test_enumerate_std_examples():
    assert len(enumerate_std(mp(2, 1, [(1,), (1,)]))) == 2
    assert len(enumerate_std(mp(1, 1, [(2,)]))) == 1
    assert len(enumerate_std(mp(2, 1, [(1, 1), ()]))) == 1


def test_enumerate_std_order_and_first():
    shape = mp(2, 1, [(1,), (1,)])
    tabs = enumerate_std(shape)
    assert tabs[0] == superstandard(shape)
    words = [t.reading_word() for t in tabs]
    assert words == sorted(words)


def test_superstandard_examples():
    t = superstandard(mp(2, 1, [(2,), (1,)]))
    assert t.rows == (((1, 2),), ((3,),))
    t = superstandard(mp(2, 1, [(1,), (1,)]))
    assert t.rows == (((1,),), ((2,),))
    t = superstandard(mp(2, 1, [(), (2,)]))
    assert t.rows == ((), ((1, 2),))


def test_count_std_matches_enumeration():
    for p, d in ((2, 1), (3, 1), (2, 2)):
        for n in range(0, 5):
            for shape in enumerate_all(p, d, n):
                assert count_std(shape) == len(enumerate_std(shape))


def test_std_squared_sum_is_algebra_dimension():
    for r, n in ((2, 2), (2, 3), (3, 3), (4, 3), (2, 4)):
        total = sum(
            len(enumerate_std(shape)) ** 2
            for shape in enumerate_all(r, 1, n)
        )
        assert total == r ** n * factorial(n)


def test_standardness_and_swap():
    t = superstandard(mp(1, 1, [(2,)]))
    assert is_standard(t)
    assert not is_standard(swap(t, 1))
    s = superstandard(mp(2, 1, [(1,), (1,)]))
    assert is_standard(swap(s, 1))
    assert swap(swap(s, 1), 1) == s


def test_tableau_validation():
    shape = mp(2, 1, [(2,), ()])
    with pytest.raises(ValueError):
        StandardTableau(shape, [[(1, 1)], []])
    with pytest.raises(ValueError):
        StandardTableau(shape, [[(1, 3)], []])
    with pytest.raises(ValueError):
        StandardTableau(shape, [[(1,)], [(2,)]])


# ---------------------------------------------------------------------------
# contents

def test_content_examples():
    K = generic_field(2, 1)
    t = superstandard(mp(2, 1, [(2,), (1,)]))
    assert content(t, 1, K) == K.eps_pow(1) * K.Q(1)
    # same row, next column: multiply by q
    assert content(t, 2, K) == content(t, 1, K) * K.q
    # component 2 carries eps^2
    assert content(t, 3, K) == K.eps_pow(2) * K.Q(1)
    col = superstandard(mp(2, 1, [(1, 1), ()]))
    assert content(col, 2, K) == content(col, 1, K) / K.q


def test_contents_shared_across_modules_at_a_point():
    pt = SpecPoint(3, 3, Fraction(5), [Fraction(7), Fraction(11)])
    rep = SeminormalRep(tuple(enumerate_all(3, 2, 3)), pt)
    seen = {}
    for k in range(1, 4):
        for s, value in zip(rep.basis, rep.l_diagonal(k)):
            e, h, c = content_exponents(s, k)
            assert value == content(s, k, pt) \
                == pt.eps_pow(e) * pt.q_power(h) * pt.Q(c)
            # one object per exponents, whatever the module
            assert seen.setdefault((e, h, c), value) is value


def test_content_vectors_distinguish_tableaux():
    for p, d, nmax in ((2, 1, 4), (3, 1, 4), (4, 1, 3), (2, 2, 3)):
        for n in range(1, nmax + 1):
            seen = {}
            for shape in enumerate_all(p, d, n):
                for t in enumerate_std(shape):
                    key = tuple(content_exponents(t, k)
                                for k in range(1, n + 1))
                    assert key not in seen, (t, seen[key])
                    seen[key] = t


def test_shift_drops_eps_exponent():
    shape = mp(3, 1, [(2,), (1,), ()])
    for t in enumerate_std(shape):
        for m in (0, 1, 2, 3):
            tm = shift_tableau(t, m)
            assert tm.shape == shape.shift(m)
            for k in range(1, 4):
                e, h, c = content_exponents(t, k)
                em, hm, cm = content_exponents(tm, k)
                assert (em - e) % 3 == (-m) % 3 and hm == h and cm == c
    assert shift_tableau(t, 3) == t
    assert shift_tableau(t, 0) == t


# ---------------------------------------------------------------------------
# seminormal ratios

def _beta(t, i, params):
    return beta_coeff(content(t, i, params), content(t, i + 1, params),
                      params)


def test_beta_same_row_is_q():
    K = generic_field(2, 1)
    t = superstandard(mp(2, 1, [(2,), ()]))
    assert _beta(t, 1, K) == K.q


def test_beta_same_column_is_minus_one():
    K = generic_field(2, 1)
    t = superstandard(mp(2, 1, [(1, 1), ()]))
    assert _beta(t, 1, K) == -K.one


def test_beta_cross_component():
    K = generic_field(2, 1)
    t = superstandard(mp(2, 1, [(1,), (1,)]))
    got = _beta(t, 1, K)
    e2, e1, Q = K.eps_pow(2), K.eps_pow(1), K.Q(1)
    assert got == (K.q - 1) * e2 * Q / (e2 * Q - e1 * Q)
    # with p = 2 this collapses to (q-1)/2
    assert got == (K.q - 1) * Fraction(1, 2)


def test_beta_degenerate_specialization():
    pt = SpecPoint(p=2, N=2, q_val=Fraction(1), Q_vals=(Fraction(3),))
    t = superstandard(mp(2, 1, [(2,), ()]))
    with pytest.raises(PoleError):
        _beta(t, 1, pt)


def test_tableau_json_roundtrip():
    shape = mp(2, 1, [(2, 1), (1,)])
    t = superstandard(shape)
    data = json.loads(json.dumps(t.rows))
    assert data == [[[1, 2], [3]], [[4]]]
    assert StandardTableau(shape, data) == t
