from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclohecke.combin import (
    Multipartition,
    _rotation_order,
    alpha,
    beta,
    check_composition,
    check_partition,
    class_reps,
    comp_stats,
    component_index,
    compositions,
    conjugate_partition,
    enumerate_all,
    enumerate_pdb,
    multipartition_tuples,
    partial_sum,
    partitions,
    reduced_word,
    wab_perm,
    wb_perm,
)
from cyclohecke.scalars import _pooled

from helpers import (
    count_multipartition_tuples,
    inversions,
    perm_from_word,
    perm_inv,
    perm_mul,
)


def mp(p, d, comps):
    return Multipartition(p, d, comps)


# ---------------------------------------------------------------------------
# partitions

def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, 0])


def test_conjugate_examples():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition(()) == ()


def test_beta_examples():
    assert beta((2,)) == 0
    assert beta((1, 1)) == 1
    assert beta((3, 2, 1)) == 4


partition_st = st.integers(0, 9).flatmap(
    lambda m: st.sampled_from(sorted(partitions(m)))
)


@given(partition_st)
def test_conjugate_involution(la):
    assert conjugate_partition(conjugate_partition(la)) == la


@given(partition_st)
def test_beta_column_binomials(la):
    assert beta(la) == sum(comb(c, 2) for c in conjugate_partition(la))


def test_partitions_count():
    # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
    expect = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for m, cnt in enumerate(expect):
        assert len(list(partitions(m))) == cnt


# ---------------------------------------------------------------------------
# permutations

def test_wab_two_line():
    # 1 -> 2, 2 -> 3, 3 -> 1
    assert wab_perm(2, 1) == (2, 3, 1)
    assert wab_perm(1, 2) == (3, 1, 2)
    assert inversions(wab_perm(1, 2)) == 2


def test_wab_defining_word():
    for a, b in ((2, 1), (1, 2), (3, 2)):
        n = a + b
        word = list(range(n - 1, 0, -1)) * b
        assert wab_perm(a, b) == perm_from_word(n, word)
        assert inversions(wab_perm(a, b)) == a * b


def test_wb_examples():
    assert wb_perm((4,)) == (1, 2, 3, 4)
    assert wb_perm((1, 1)) == (2, 1)
    assert wb_perm((1, 2)) == (3, 1, 2)


def test_comp_stats_examples():
    assert comp_stats((3, 0, 0)) == (3, 0)
    assert comp_stats((1, 2)) == (5, 2)
    assert comp_stats((2, 1))[1] == 2


def test_wb_length_matches_inversions():
    for p in (2, 3, 4):
        for n in range(0, 7):
            for b in compositions(n, p):
                assert comp_stats(b)[1] == inversions(wb_perm(b))


word_st = st.lists(st.integers(1, 4), min_size=0, max_size=12)


@given(word_st)
def test_reduced_word_roundtrip(word):
    w = perm_from_word(5, word)
    rw = reduced_word(w)
    assert perm_from_word(5, rw) == w
    assert len(rw) == inversions(w)
    assert len(rw) <= len(word)


@given(word_st, word_st)
def test_perm_mul_word_concat(u_word, v_word):
    u = perm_from_word(5, u_word)
    v = perm_from_word(5, v_word)
    assert perm_mul(u, v) == perm_from_word(5, u_word + v_word)
    assert perm_mul(u, perm_inv(u)) == (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# compositions

def test_partial_sum():
    b = (1, 2, 0, 3)
    assert partial_sum(b, 1, 4) == 6
    assert partial_sum(b, 2, 3) == 2
    assert partial_sum(b, 3, 2) == 0


def test_composition_validation():
    with pytest.raises(ValueError):
        check_composition((1, -1))


@pytest.mark.parametrize("parts", [0, -1])
def test_generators_reject_nonpositive_part_counts(parts):
    with pytest.raises(ValueError):
        next(compositions(2, parts))
    with pytest.raises(ValueError):
        next(multipartition_tuples(parts, 1))


def test_alpha():
    assert alpha((1, 2)) == 5
    assert alpha((3, 0, 0)) == 3


# ---------------------------------------------------------------------------
# multipartitions

def test_component_index():
    # s = d*(p_s - 1) + d_s
    assert component_index(1, 2, 2) == (1, 1)
    assert component_index(2, 2, 2) == (1, 2)
    assert component_index(3, 2, 2) == (2, 1)
    assert component_index(4, 2, 2) == (2, 2)
    with pytest.raises(ValueError):
        component_index(5, 2, 2)


def test_arrow_examples():
    # all parts of a multipartition pooled into one partition
    assert _pooled(((2, 1, 1), (3, 2, 1))) == (3, 2, 2, 1, 1, 1)
    assert _pooled(((1,), (1,))) == (1, 1)
    assert _pooled(((3,), (2, 2))) == (3, 2, 2)


def test_dominates_examples():
    la = mp(2, 1, [(2,), ()])
    mu = mp(2, 1, [(1,), (1,)])
    assert la.dominates(la)
    assert la.dominates(mu)
    assert not mu.dominates(la)
    assert not mp(2, 1, [(1, 1), ()]).dominates(la)
    with pytest.raises(ValueError):
        la.dominates(mp(2, 1, [(1,), ()]))


def test_shift_examples():
    la = mp(2, 1, [(1,), (2,)])
    assert la.shift(1) == mp(2, 1, [(2,), (1,)])
    assert la.shift(2) == la
    lb = mp(2, 2, [(1,), (2,), (3,), ()])
    assert lb.shift(1) == mp(2, 2, [(3,), (), (1,), (2,)])


def test_orbit_order_examples():
    assert mp(3, 1, [(1,), (1,), (1,)]).orbit_order() == (1, 3)
    assert mp(4, 1, [(1,), (), (1,), ()]).orbit_order() == (2, 2)
    assert mp(2, 1, [(2,), (1,)]).orbit_order() == (2, 1)
    # no rotation of an empty tuple of blocks is a block shift
    with pytest.raises(RuntimeError, match="internal"):
        _rotation_order(())


def test_orbit_slice():
    la = mp(4, 1, [(1,), (), (1,), ()])
    assert la.orbit_slice() == mp(2, 1, [(1,), ()])
    assert la.orbit_slice().comps * 2 == la.comps


def test_enumerate_pdb_examples():
    assert enumerate_pdb(1, (1, 1)) == [mp(2, 1, [(1,), (1,)])]
    got = enumerate_pdb(2, (1, 0))
    assert sorted(x.comps for x in got) == [
        ((), (1,), (), ()),
        ((1,), (), (), ()),
    ]
    assert enumerate_pdb(1, (0, 0)) == [mp(2, 1, [(), ()])]


def test_enumerate_pdb_counts():
    for d in (1, 2):
        for b in ((2, 1), (0, 3), (2, 2, 1)):
            got = enumerate_pdb(d, b)
            expect = 1
            for bt in b:
                expect *= count_multipartition_tuples(d, bt)
            assert len(got) == expect
            assert len(set(got)) == expect
            assert all(la.composition() == b for la in got)


def test_count_matches_enumeration():
    for d in (1, 2, 3):
        for m in range(0, 6):
            assert count_multipartition_tuples(d, m) == len(
                list(multipartition_tuples(d, m))
            )


def test_enumerate_all_total():
    # r^0th moment: total count over all compositions
    got = enumerate_all(2, 1, 3)
    assert len(got) == count_multipartition_tuples(2, 3)


def test_enumerate_all_memo_keys_are_type_exact():
    # 1 == True == 1.0 and they hash alike, so a memo keyed by value alone
    # would hand the cached labels of d = 1 to arguments refused before
    assert len(enumerate_all(1, 1, 2)) == 2
    assert len(enumerate_all(1, 1, 1)) == 1
    for args in ((1, True, 2), (1, 1.0, 2), (1, 1, 2.0), (1, 1, True)):
        with pytest.raises(ValueError):
            enumerate_all(*args)


def test_enumerate_all_returns_a_fresh_list():
    first = enumerate_all(2, 1, 2)
    want = list(first)
    first.reverse()
    first.append(mp(2, 1, [(1, 1), (1,)]))
    del first[0]
    again = enumerate_all(2, 1, 2)
    assert again == want and again is not first
    assert [la.sort_key() for la in again] == sorted(
        la.sort_key() for la in again)


def test_dominance_partial_order():
    for d, b in ((1, (2, 1)), (2, (2, 1)), (1, (3, 2)), (2, (3, 0))):
        items = enumerate_pdb(d, b)
        n_items = len(items)
        rel = [
            [items[i].dominates(items[j]) for j in range(n_items)]
            for i in range(n_items)
        ]
        for i in range(n_items):
            assert rel[i][i]
            for j in range(n_items):
                if rel[i][j] and rel[j][i]:
                    assert i == j
                for k in range(n_items):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]


def test_orbit_order_invariant():
    for la in enumerate_all(4, 1, 4):
        o, p_quot = la.orbit_order()
        assert 4 % o == 0 and o * p_quot == 4
        assert la.shift(o) == la
        for k in range(1, o):
            assert la.shift(k) != la


def test_class_reps_b():
    # o_b = p: only the trivial shift identifies anything
    items = [mp(2, 1, [(1,), (2,)]), mp(2, 1, [(2,), (1,)])]
    assert len(class_reps(items, (1, 2))) == 2
    # o_b = 1: both shifts allowed again
    sym = [mp(2, 1, [(2,), (1, 1)]), mp(2, 1, [(1, 1), (2,)])]
    assert len(class_reps(sym, (2, 2))) == 1
    # a shift-fixed item is its own class
    fixed = mp(2, 1, [(1,), (1,)])
    assert class_reps([fixed], (1, 1)) == [fixed]


def test_multipartition_json():
    la = mp(2, 2, [(3, 1), (2,), (), (1,)])
    data = la.to_json()
    assert data == [[3, 1], [2], [], [1]]
    assert Multipartition(2, 2, data) == la


def test_multipartition_validation():
    with pytest.raises(ValueError):
        mp(2, 1, [(1,)])
    with pytest.raises(ValueError):
        mp(2, 1, [(1, 2), ()])


@pytest.mark.parametrize("p, d", [(2.0, 1), (2, 1.0), (True, 1), (1, True),
                                  ("2", 1)])
def test_multipartition_context_must_be_int(p, d):
    with pytest.raises(ValueError, match="must be integers"):
        Multipartition(p, d, [(1,), (1,)])


@st.composite
def small_multipartitions(draw):
    """A (p, d) multipartition with p <= 4, d <= 2 and size <= 5."""
    p = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=0, max_value=5))
    return draw(st.sampled_from(enumerate_all(p, d, n)))


def _recomputed(p, d, comps):
    """Composition, orbit order and orbit slice components from comps."""
    blocks = [comps[d * t: d * (t + 1)] for t in range(p)]
    comp = tuple(sum(sum(c) for c in blk) for blk in blocks)
    o = next(o for o in range(1, p + 1)
             if p % o == 0 and blocks[o:] + blocks[:o] == blocks)
    return comp, (o, p // o), comps[: o * d]


@given(small_multipartitions())
def test_cached_facts_match_recomputation(la):
    p, d = la.p, la.d
    comp, order, head = _recomputed(p, d, la.comps)
    # the first round shifts a value with an empty cache; its last checks
    # fill that cache, which the shifts of the second round inherit
    for _ in range(2):
        for k in range(p + 1):
            cut = d * (k % p)
            comps = la.comps[cut:] + la.comps[:cut]
            checked = Multipartition(p, d, comps)
            shifted = la.shift(k)
            assert shifted == checked and hash(shifted) == hash(checked)
            assert shifted.sort_key() == checked.sort_key()
            want = _recomputed(p, d, comps)
            for value in (shifted, checked):
                # the second answer comes from the cache
                for _ in range(2):
                    assert value.composition() == want[0]
                    assert value.orbit_order() == want[1]
                    assert value.orbit_slice() == Multipartition(
                        want[1][0], d, want[2])
        assert (la.composition(), la.orbit_order()) == (comp, order)
        assert la.orbit_slice().comps == head
