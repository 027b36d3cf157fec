import gc
import random
import re
import weakref
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from cyclohecke import seminormal
from cyclohecke.cli import scalar_to_json
from cyclohecke.combin import Multipartition, enumerate_all
from cyclohecke.exactnum import (
    CycRat,
    GenericField,
    PoleError,
    SpecPoint,
    generic_field,
    ratfunc_to_json,
    sample_point,
)
from cyclohecke.matrices import (
    rows_diag,
    rows_mul,
    rows_scale_cols,
    rows_trace,
)
from cyclohecke.seminormal import (
    UNIT_DIM,
    UNITS_CACHE_SIZE,
    WORD_CACHE_SIZE,
    SeminormalRep,
    build_rep,
    character,
    check_relations,
    element_equal,
    eval_word,
    evaluation_units,
    mode_fields,
)
from cyclohecke.tableau import beta_coeff, content, count_std, enumerate_std

from helpers import (
    FractionPoint,
    RatFuncField,
    eval_dense,
    eval_sum,
    is_standard,
    mat_add,
    mat_diag,
    mat_identity,
    mat_mul,
    mat_rows,
    mat_scale,
    reference_json,
    rows_dense,
    swap,
    t_inverse,
)


def mp(p, d, comps):
    return Multipartition(p, d, comps)


K21 = generic_field(2, 1)


# ---------------------------------------------------------------------------
# build_rep

def test_one_dimensional_reps():
    row = build_rep(mp(2, 1, [(2,), ()]), K21)
    assert row.t_rows(1) == (((0, K21.q),),)
    assert eval_word(row, [("T", 1)]) == (((0, K21.q),),)
    col = build_rep(mp(2, 1, [(1, 1), ()]), K21)
    assert col.t_rows(1) == (((0, -K21.one),),)
    assert eval_word(col, [("T", 1)]) == (((0, -K21.one),),)


def test_l1_diagonal_of_contents():
    rep = build_rep(mp(2, 1, [(1,), (1,)]), K21)
    e1Q = K21.eps_pow(1) * K21.Q(1)
    e2Q = K21.eps_pow(2) * K21.Q(1)
    assert rep.l_diagonal(1) == (e1Q, e2Q)
    assert eval_dense(rep, [("T", 0)]) == mat_diag([e1Q, e2Q], K21.zero)
    for k in (1, 2):
        for a, s in enumerate(rep.basis):
            assert rep.l_diagonal(k)[a] == content(s, k, K21)


def test_context_mismatch():
    with pytest.raises(ValueError):
        build_rep(mp(2, 1, [(1,), (1,)]), generic_field(3, 1))
    # a direct sum needs shapes, all of one size
    with pytest.raises(ValueError, match="at least one shape"):
        SeminormalRep((), K21)
    with pytest.raises(ValueError, match="differ in size"):
        SeminormalRep((mp(2, 1, [(1,), (1,)]), mp(2, 1, [(1,), ()])), K21)


def test_reps_over_two_points_share_the_shape_skeleton():
    # one module and the direct sum of all of (2, 1, 3): the basis is
    # the shapes' cached tableaux laid end to end, the same objects over
    # both points, while the contents belong to each point
    rng = random.Random(5)
    one, two = sample_point(2, 1, 3, rng), sample_point(2, 1, 3, rng)
    for shapes in ((mp(2, 1, [(2,), (1,)]),), tuple(enumerate_all(2, 1, 3))):
        rep_one, rep_two = SeminormalRep(shapes, one), SeminormalRep(
            shapes, two)
        assert isinstance(rep_one.basis, tuple)
        assert all(s is t for s, t in zip(rep_one.basis, rep_two.basis))
        assert rep_one.basis == tuple(
            s for shape in shapes for s in enumerate_std(shape))
        lo = 0
        for (shape, start, hi), block in zip(
                rep_one.blocks, (enumerate_std(s) for s in shapes)):
            assert (start, hi) == (lo, lo + len(block))
            assert shape in shapes
            lo = hi
        assert lo == rep_one.dim == len(rep_one.basis)
        assert rep_one.l_diagonal(2) != rep_two.l_diagonal(2)
        for rep in (rep_one, rep_two):
            for k in (1, 2, 3):
                assert rep.l_diagonal(k) == tuple(
                    content(s, k, rep.field) for s in rep.basis)


def _corrupt_contents(monkeypatch, field, exponents):
    """Make a rep over `field`, and only there, read the content with
    exponents (e, h, c) as the one with exponents(e, h, c)."""
    real = seminormal._content_value
    monkeypatch.setattr(
        seminormal, "_content_value",
        lambda params, e, h, c: real(params, *exponents(e, h, c))
        if params is field else real(params, e, h, c))


@pytest.mark.parametrize("exponents, error", [
    # cont(2) = q^2 cont(1) breaks T_1 L_1 T_1 = q L_2
    (lambda e, h, c: (e, 2 * h, c), RuntimeError),
    # cont(2) = cont(1) leaves the seminormal ratio without a value
    (lambda e, h, c: (e, 0, c), PoleError),
])
def test_a_shared_skeleton_still_checks_each_field(monkeypatch, exponents,
                                                   error):
    # 1 and 2 share the row of ((2), ()); the skeleton of the shape is
    # warm from the first point when the second one is corrupted
    rng = random.Random(5)
    shape = mp(2, 1, [(2,), ()])
    first, second = sample_point(2, 1, 2, rng), sample_point(2, 1, 2, rng)
    SeminormalRep((shape,), first)
    _corrupt_contents(monkeypatch, second, exponents)
    with pytest.raises(error):
        SeminormalRep((shape,), second)
    assert check_relations(SeminormalRep((shape,), first)) == []


@pytest.mark.parametrize("exponents, error", [
    (lambda e, h, c: (e, 2 * h, c), RuntimeError),
    (lambda e, h, c: (e, 0, c), PoleError),
])
def test_a_direct_sum_names_the_shape_that_fails(monkeypatch, exponents,
                                                 error):
    # both checks cover every block of a direct sum: it fails as the
    # first of its shapes fails when built alone, and names that shape
    rng = random.Random(5)
    point = sample_point(2, 1, 2, rng)
    shapes = tuple(enumerate_all(2, 1, 2))
    _corrupt_contents(monkeypatch, point, exponents)
    failing = []
    for shape in shapes:
        try:
            SeminormalRep((shape,), point)
        except error:
            failing.append(shape)
    assert failing
    with pytest.raises(error, match=re.escape(repr(failing[0]))):
        SeminormalRep(shapes, point)


# ---------------------------------------------------------------------------
# relations

def test_relations_symbolic_small():
    for shape in enumerate_all(2, 1, 2):
        assert check_relations(build_rep(shape, K21)) == []


def test_relations_symbolic_pair():
    rep = build_rep(mp(2, 1, [(1,), (1,)]), K21)
    assert check_relations(rep) == []


@pytest.mark.parametrize("p, d, n", [(2, 1, 3), (2, 2, 2), (1, 2, 3)])
def test_factored_and_multiplied_out_fields_build_the_same_reps(p, d, n):
    # GenericField builds closed-form RatFunc values, RatFuncField
    # multiplied-out RefRatFuncs: the seminormal entries must print the same
    factored, multiplied = GenericField(p, d), RatFuncField(p, d)
    shifts = [(None, None), (factored.one - factored.q,
                             multiplied.one - multiplied.q)]
    for shape in enumerate_all(p, d, n):
        a = build_rep(shape, factored)
        b = build_rep(shape, multiplied)
        for k in range(1, n + 1):
            assert [scalar_to_json(x) for x in a.l_diagonal(k)] \
                == [reference_json(x) for x in b.l_diagonal(k)], (shape, k)
        for i in range(1, n):
            for shift_a, shift_b in shifts:
                assert [[(j, scalar_to_json(x)) for j, x in row]
                        for row in a.t_rows(i, shift_a)] \
                    == [[(j, reference_json(x)) for j, x in row]
                        for row in b.t_rows(i, shift_b)], (shape, i, shift_a)
        assert check_relations(a) == []
        assert check_relations(b) == []


def test_relations_at_points():
    rng = random.Random(3)
    for p, d, n in ((2, 1, 3), (3, 1, 3), (2, 2, 2)):
        pt = sample_point(p, d, n, rng)
        for shape in enumerate_all(p, d, n):
            assert check_relations(build_rep(shape, pt)) == []


def test_corrupted_t0_fails_cyclotomic():
    base = build_rep(mp(2, 1, [(1,), (1,)]), K21)
    corrupt = SeminormalRep(base.shapes, base.field)
    corrupt.ldiag = list(base.ldiag)
    corrupt.ldiag[0] = tuple(c + K21.one for c in base.ldiag[0])
    report = check_relations(corrupt)
    assert any("cyclotomic" in line for line in report)


def test_corrupted_t0_fails_cyclotomic_at_a_point():
    # the cyclotomic relation is a word of ladder tokens, so at a point it
    # goes through the ladder memo of the corrupted rep
    pt = sample_point(2, 1, 2, random.Random(9))
    base = build_rep(mp(2, 1, [(1,), (1,)]), pt)
    assert check_relations(base) == []
    corrupt = SeminormalRep(base.shapes, base.field)
    corrupt.ldiag = list(base.ldiag)
    corrupt.ldiag[0] = tuple(c + pt.one for c in base.ldiag[0])
    report = check_relations(corrupt)
    assert any("cyclotomic" in line for line in report)
    assert corrupt._ladders


def test_t1_with_the_quadratic_relation_fails_only_the_t0_braid():
    # T_1 = [[q - 1, 1], [q, 0]] satisfies (T_1 - q)(T_1 + 1) = 0, but not
    # T_0 T_1 T_0 T_1 = T_1 T_0 T_1 T_0 with the diagonal T_0
    for field in (K21, sample_point(2, 1, 2, random.Random(4))):
        rep = build_rep(mp(2, 1, [(1,), (1,)]), field)
        rep.trows = {1: (((0, field.q - field.one), (1, field.one)),
                         ((0, field.q),))}
        assert check_relations(rep) == [
            "braid relation T_0T_1T_0T_1 = T_1T_0T_1T_0"]


def test_corrupted_t1_row_fails_quadratic():
    for field in (K21, sample_point(2, 1, 3, random.Random(11))):
        base = build_rep(mp(2, 1, [(2,), (1,)]), field)
        corrupt = SeminormalRep(base.shapes, base.field)
        rows = list(base.t_rows(1))
        rows[0] = tuple((j, 2 * x) for j, x in rows[0])
        corrupt.trows = dict(base.trows)
        corrupt.trows[1] = tuple(rows)
        assert check_relations(base) == []
        assert "quadratic relation for T_1" in check_relations(corrupt)


def test_jm_elements_commute():
    pt = sample_point(2, 2, 3, random.Random(5))
    for shape in enumerate_all(2, 2, 3):
        rep = build_rep(shape, pt)
        for a in range(1, 4):
            for b in range(a + 1, 4):
                assert eval_word(rep, [("L", a), ("L", b)]) \
                    == eval_word(rep, [("L", b), ("L", a)])


def test_jm_exchange_identities():
    # T_k L_k = L_{k+1}(T_k - q + 1) and T_k L_{k+1} = L_k T_k + (q-1) L_{k+1}
    q = K21.q
    for shape in enumerate_all(2, 1, 3):
        rep = build_rep(shape, K21)
        for k in range(1, 3):
            Tk, Lk, Lk1 = ("T", k), ("L", k), ("L", k + 1)
            assert eval_word(rep, [Tk, Lk]) \
                == eval_word(rep, [Lk1, ("Tshift", k, 1 - q)])
            assert eval_dense(rep, [Tk, Lk1]) \
                == eval_sum(rep, [[Lk, Tk], [("scal", q - 1), Lk1]])


def test_symmetric_jm_polynomials_central():
    pt = sample_point(3, 1, 3, random.Random(9))
    for shape in enumerate_all(3, 1, 3):
        rep = build_rep(shape, pt)
        e1 = [[("L", k)] for k in range(1, 4)]
        e2 = [[("L", a), ("L", b)]
              for a in range(1, 4) for b in range(a + 1, 4)]
        for i in range(3):
            for e in (e1, e2):
                assert eval_sum(rep, [w + [("T", i)] for w in e]) \
                    == eval_sum(rep, [[("T", i)] + w for w in e])


# ---------------------------------------------------------------------------
# words

def test_eval_word_examples():
    rep = build_rep(mp(2, 1, [(2,), (1,)]), K21)
    assert eval_dense(rep, []) == mat_identity(rep)
    via_recursion = mat_scale(
        K21.q_power(-1),
        eval_dense(rep, [("T", 1), ("L", 1), ("T", 1)]))
    assert eval_dense(rep, [("L", 2)]) == via_recursion


def test_eval_word_quadratic():
    rep = build_rep(mp(2, 1, [(2,), (1,)]), K21)
    lhs = eval_dense(rep, [("T", 1), ("T", 1)])
    rhs = mat_add(mat_scale(K21.q - 1, eval_dense(rep, [("T", 1)])),
                  mat_scale(K21.q, mat_identity(rep)))
    assert lhs == rhs


@pytest.mark.parametrize("field", [
    GenericField(2, 1), sample_point(2, 1, 3, random.Random(28)),
    GenericField(2, 2), sample_point(2, 2, 2, random.Random(29)),
])
def test_quadratic_product_stores_no_entry(field):
    # (T_i - q)(T_i + 1), as check_relations states the quadratic
    # relation: every sum in the product cancels, and none is kept
    n = 3 if field.d == 1 else 2
    for shape in enumerate_all(field.p, field.d, n):
        rep = build_rep(shape, field)
        for i in range(1, n):
            got = eval_word(rep, [("Tshift", i, -field.q), ("Tshift", i, 1)])
            assert got == ((),) * rep.dim, (shape, i)


def _basis(rep):
    """The standard tableaux of the rep's shapes, in block order."""
    return [s for shape in rep.shapes for s in enumerate_std(shape)]


def _contents(rep, k):
    return [content(s, k, rep.field) for s in _basis(rep)]


def _dense_t(rep, i):
    """T_i straight from the seminormal formulas, independent of the rep."""
    if i == 0:
        return mat_diag(_contents(rep, 1), rep.field.zero)
    field, basis = rep.field, _basis(rep)
    rows = []
    for s in basis:
        row = [field.zero] * len(basis)
        bc = beta_coeff(content(s, i, field), content(s, i + 1, field), field)
        row[basis.index(s)] = bc
        t = swap(s, i)
        if is_standard(t):
            row[basis.index(t)] = field.one + bc
        rows.append(tuple(row))
    return tuple(rows)


def _dense_factor(rep, item):
    """One token as a dense matrix, straight from its definition."""
    tag, field, ident = item[0], rep.field, mat_identity(rep)
    if tag == "T":
        return _dense_t(rep, item[1])
    if tag == "Tshift":
        c = item[2]
        if isinstance(c, (int, Fraction)):
            c = field.scalar(c)
        return mat_add(_dense_t(rep, item[1]), mat_scale(c, ident))
    if tag == "L":
        return mat_diag(_contents(rep, item[1]), field.zero)
    if tag == "ladder":
        root = field.eps_pow(item[2]) * field.Q(item[3])
        return mat_add(mat_diag(_contents(rep, item[1]), field.zero),
                       mat_scale(-root, ident))
    if tag == "scal":
        return mat_scale(field.scalar(item[1]), ident)
    raise ValueError(f"unknown word token {tag!r}")


def _dense_word(rep, word):
    acc = mat_identity(rep)
    for item in word:
        acc = mat_mul(acc, _dense_factor(rep, item))
    return acc


def _random_word(rng, field, n, length):
    word = []
    for _ in range(length):
        tag = rng.choice(["T", "Tshift", "L", "ladder", "scal"])
        if tag == "T":
            word.append(("T", rng.randrange(n)))
        elif tag == "Tshift":
            # -q makes the diagonal entry of a one-row block vanish
            shift = rng.choice([-1, 1, Fraction(1, 3), -field.q])
            word.append(("Tshift", rng.randint(1, n - 1), shift))
        elif tag == "L":
            word.append(("L", rng.randint(1, n)))
        elif tag == "ladder":
            # twist exponents past 1..p too, which are read mod p
            word.append(("ladder", rng.randint(1, n),
                         rng.randint(-field.p, 2 * field.p),
                         rng.randint(1, field.d)))
        else:
            word.append(("scal", rng.choice([-1, 0, 2, Fraction(1, 3)])))
    return word


def _form(x):
    """The stored representation of a scalar, not just its value; a
    symbolic one multiplied out, as it is printed."""
    if isinstance(x, CycRat):
        return (x.nums, x.den)
    return ratfunc_to_json(x)


def _check_rows(value, dense_expect, zero):
    """The sparse rows of a word value against the dense reference: the
    same values and stored representations, columns increasing and no
    zero stored."""
    dense = rows_dense(value, zero)
    assert dense == dense_expect
    # the same representations too, so printed output is unchanged
    assert [[_form(x) for x in row] for row in dense] \
        == [[_form(x) for x in row] for row in dense_expect]
    for row in value:
        assert all(x for _, x in row)
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols))


@pytest.mark.parametrize("field, n, count", [
    (K21, 3, 12),
    (sample_point(3, 1, 3, random.Random(5)), 3, 16),
    (sample_point(2, 2, 3, random.Random(6)), 3, 12),
])
def test_eval_word_matches_dense_reference(field, n, count):
    rng = random.Random(17)
    ladder = ("ladder", 1, 1, 1)
    words = [
        [],
        [("L", 2), ladder, ("scal", 2), ("T", 1), ("Tshift", 2, -field.q)],
        [("T", 2), ("Tshift", 1, 1), ("T", 0), ladder, ("L", 3)],
        [ladder, ("T", 0), ("scal", -1)],
        [("Tshift", 1, -field.q), ("Tshift", 1, 1), ("L", 1)],
    ]
    words += [_random_word(rng, field, n, rng.randint(1, 8))
              for _ in range(count)]
    tags = {item[0] for word in words for item in word}
    assert tags == {"T", "Tshift", "L", "ladder", "scal"}
    for shape in enumerate_all(field.p, field.d, n):
        rep = build_rep(shape, field)
        for word in words:
            _check_rows(eval_word(rep, word), _dense_word(rep, word),
                        field.zero)


def _diagonal_token(rng, field, n):
    tag = rng.choice(["L", "ladder", "scal", "T0"])
    if tag == "L":
        return ("L", rng.randint(1, n))
    if tag == "ladder":
        # L_1 - eps^s Q_i is zero at every tableau with 1 in a component
        # of twist s and parameter i, so these runs meet zero entries
        return ("ladder", rng.choice([1, rng.randint(1, n)]),
                rng.randint(1, field.p), rng.randint(1, field.d))
    if tag == "scal":
        return ("scal", rng.choice([0, -1, 2, Fraction(1, 3), field.q]))
    return ("T", 0)


def _run_word(rng, field, n):
    """Runs of one to four diagonal tokens between single T_i or T_i + c
    tokens, with a run or a T_i at either end."""
    word = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6:
            word += [_diagonal_token(rng, field, n)
                     for _ in range(rng.randint(1, 4))]
        elif rng.random() < 0.5:
            word.append(("T", rng.randint(1, n - 1)))
        else:
            word.append(("Tshift", rng.randint(1, n - 1),
                         rng.choice([1, -field.q])))
    return word


@pytest.mark.parametrize("field", [
    K21, sample_point(2, 2, 3, random.Random(31)),
], ids=["generic-2-1", "point-2-2"])
def test_fused_diagonal_runs_match_token_by_token_products(field):
    # a run of diagonal tokens is applied as one diagonal, multiplied
    # entrywise at the columns the product still holds; the reference
    # multiplies one dense factor after another
    n, rng = 3, random.Random(19)
    ladder = ("ladder", 1, 1, 1)
    words = [
        [],
        [("L", 2), ladder, ("L", 3)],
        [ladder, ("scal", 0)],
        [("scal", 0), ("T", 1), ("L", 1)],
        [("T", 1), ("L", 2), ladder, ("T", 0), ("scal", 2)],
        [("L", 3), ("scal", 2), ("T", 2), ladder, ("L", 2), ("T", 1),
         ("T", 0), ("L", 1)],
        [("Tshift", 1, 1), ("ladder", 2, 2, 1), ladder, ("T", 2)],
    ]
    words += [_run_word(rng, field, n) for _ in range(10)]
    rep = SeminormalRep(tuple(enumerate_all(field.p, field.d, n)), field)
    zeros = 0
    for word in words:
        value = eval_word(rep, word)
        _check_rows(value, _dense_word(rep, word), field.zero)
        zeros += sum(not row for row in value)
    assert zeros
    # a bad token right after a run still raises, and so does a bad
    # index inside one
    for bad in ([("L", 1), ladder, ("Tx", 1)],
                [ladder, ("L", 2), ("T", n)],
                [("L", 1), ("L", n + 1), ("L", 2)]):
        with pytest.raises(ValueError):
            eval_word(rep, bad)
    tags = {item[0] for word in words for item in word}
    assert tags == {"T", "Tshift", "L", "ladder", "scal"}


def test_position_read_swaps_match_swapped_tableaux():
    # the skeleton reads a swap off the positions of i and i+1; the
    # reference swaps the entries and tests the filling for standardness
    for p, d, n in ((2, 1, 4), (2, 2, 3), (3, 2, 3)):
        for shape in enumerate_all(p, d, n):
            basis, _, swaps = seminormal._shape_skeleton(shape)
            index = {s: a for a, s in enumerate(basis)}
            expect = tuple(
                tuple(index[swap(s, i)] if is_standard(swap(s, i)) else None
                      for s in basis)
                for i in range(1, n))
            assert swaps == expect, shape


@pytest.mark.parametrize("field", [
    K21, sample_point(2, 2, 3, random.Random(32)),
], ids=["generic-2-1", "point-2-2"])
def test_equal_content_pairs_share_one_ratio(field):
    # within one rep, a direct sum here, beta and 1 + beta are computed
    # once per pair of content objects
    rep = SeminormalRep(tuple(enumerate_all(field.p, field.d, 3)), field)
    slots, seen = 0, {}
    for i in range(1, rep.n):
        c, cp = rep.l_diagonal(i), rep.l_diagonal(i + 1)
        for a, row in enumerate(rep.t_rows(i)):
            entries = dict(row)
            bc = entries.pop(a)
            assert bc == beta_coeff(c[a], cp[a], field)
            first = seen.setdefault((id(c[a]), id(cp[a])), [bc, None])
            assert first[0] is bc
            for x in entries.values():
                assert x == field.one + bc
                if first[1] is None:
                    first[1] = x
                assert first[1] is x
            slots += 1
    assert len(seen) < slots


def test_a_content_collision_names_its_shape():
    # at q = -1, p = 2 the content q Q of 2 in the first component of
    # ((2), (1)) equals the content Q of 3 in the second: no seminormal
    # ratio at i = 2, and a direct sum names the first such shape
    point = SpecPoint(2, 2, -1, [1])
    shapes = tuple(enumerate_all(2, 1, 3))
    failing = []
    for shape in shapes:
        try:
            SeminormalRep((shape,), point)
        except PoleError:
            failing.append(shape)
    assert mp(2, 1, [(2,), (1,)]) in failing
    with pytest.raises(PoleError, match=re.escape(repr(failing[0]))):
        SeminormalRep(shapes, point)
    with pytest.raises(PoleError, match=re.escape(repr(failing[-1]))):
        SeminormalRep(shapes[::-1], point)


@pytest.mark.parametrize("field", [
    GenericField(2, 1), GenericField(2, 2),
    sample_point(3, 1, 3, random.Random(40)),
    sample_point(2, 2, 3, random.Random(41)),
    FractionPoint(5, [3, 7]),
], ids=["generic-2-1", "generic-2-2", "point-3-1", "point-2-2", "fraction"])
def test_direct_sum_blocks_match_reps_built_alone(field):
    # two independent computations of one word: each block of its value
    # on the direct sum of all modules against its value on the module of
    # that shape built alone, columns moved by the block's first index
    n = 3 if field.d == 1 or not field.is_generic else 2
    rng = random.Random(43)
    words = [[], [("T", 0), ("T", 1), ("T", 0), ("T", 1)]]
    words += [_random_word(rng, field, n, rng.randint(1, 8))
              for _ in range(8)]
    shapes = tuple(enumerate_all(field.p, field.d, n))
    whole = SeminormalRep(shapes, field)
    alone = [SeminormalRep((shape,), field) for shape in shapes]
    assert [shape for shape, _, _ in whole.blocks] == list(shapes)
    for word in words:
        value = eval_word(whole, word)
        for (shape, lo, hi), rep in zip(whole.blocks, alone):
            assert hi - lo == rep.dim
            assert value[lo:hi] == tuple(
                tuple((lo + j, x) for j, x in row)
                for row in eval_word(rep, word)), (shape, word)


@pytest.mark.parametrize("field, n, count", [
    (GenericField(3, 2), 2, 27),
    (sample_point(2, 2, 3, random.Random(44)), 3, 1),
    (sample_point(3, 2, 3, random.Random(45)), 3, 2),
])
def test_evaluation_units_cover_every_shape_once(field, n, count):
    # one rep per shape over the generic field; at a point direct sums of
    # consecutive shapes, at most UNIT_DIM tableaux each unless one shape
    # alone is larger; one memo entry per cell and field in both backends
    units = evaluation_units(field.p, field.d, n, field)
    assert len(units) == count
    assert [shape for rep in units for shape, _, _ in rep.blocks] \
        == enumerate_all(field.p, field.d, n)
    assert evaluation_units(field.p, field.d, n, field) is units
    if not field.is_generic:
        assert all(rep.dim <= UNIT_DIM for rep in units)
        assert sum(rep.dim for rep in units[:2]) > UNIT_DIM or count == 1


@pytest.mark.parametrize("p, d, n, seed", [
    (2, 1, 3, 21), (3, 1, 3, 22), (2, 2, 3, 23),
])
def test_memoized_ladders_match_dense_reference(p, d, n, seed):
    rng = random.Random(seed)
    field = sample_point(p, d, n, rng)
    for shape in enumerate_all(p, d, n):
        rep = SeminormalRep((shape,), field)
        for _ in range(3):
            word = _random_word(rng, field, n, rng.randint(1, 6))
            word += [("ladder", rng.randint(1, n), rng.randint(1, p),
                      rng.randint(1, d)) for _ in range(4)]
            rng.shuffle(word)
            expect = _dense_word(rep, word)
            first = eval_word(rep, word)
            second = eval_word(rep, word)
            assert first == second, (shape, word)
            _check_rows(second, expect, field.zero)
        assert 0 < len(rep._ladders) <= n * p * d


def test_ladder_memo_reads_s_mod_p():
    # s and s + p name one parameter, so they share one memo entry
    for field in (K21, sample_point(3, 2, 2, random.Random(25))):
        p = field.p
        rep = SeminormalRep(
            (mp(p, field.d, [(2,)] + [()] * (p * field.d - 1)),), field)
        first = rep.ladder_diagonal(2, 1, 1)
        for s in (1 + p, 1 - p, 1 + 3 * p):
            assert rep.ladder_diagonal(2, s, 1) is first
            assert eval_dense(rep, [("ladder", 2, s, 1)]) \
                == mat_diag(first, field.zero)
        assert list(rep._ladders) == [(2, 1, 1)]


def test_ladder_indices_out_of_range():
    pt = sample_point(2, 2, 3, random.Random(26))
    for field in (GenericField(2, 2), pt):
        rep = SeminormalRep((mp(2, 2, [(2,), (1,), (), ()]),), field)
        for k, i in ((0, 1), (4, 1), (-1, 1), (1, 0), (1, 3), (1, -1)):
            with pytest.raises(ValueError):
                rep.ladder_diagonal(k, 1, i)
            with pytest.raises(ValueError):
                eval_word(rep, [("ladder", k, 1, i)])
        assert rep._ladders == {}


def test_ladder_memo_fills_over_the_generic_field():
    field = GenericField(2, 2)
    rep = SeminormalRep((mp(2, 2, [(1,), (1,), (1,), ()]),), field)
    cyclotomic = seminormal._relations(field, rep.n)[0][1]
    for k in range(1, rep.n + 1):
        word = [("ladder", k) + item[2:] for item in cyclotomic]
        first = eval_word(rep, word)
        assert len(rep._ladders) == 4 * k
        _check_rows(first, _dense_word(rep, word), field.zero)
        for item in word:
            diag = rep.ladder_diagonal(*item[1:])
            assert diag is rep._ladders[k, item[2] % 2, item[3]]
            root = field.eps_pow(item[2]) * field.Q(item[3])
            assert diag == tuple(c - root for c in rep.l_diagonal(k))
    assert len(rep._ladders) == rep.n * field.p * field.d


def test_reps_on_one_point_share_ladder_entries():
    # within one rep, a direct sum here, equal contents give one ladder
    # entry object in both backends, and each diagonal is its own (s, i)
    for field in (sample_point(2, 2, 3, random.Random(27)), K21):
        rep = SeminormalRep(tuple(enumerate_all(field.p, field.d, 3)), field)
        for k in range(1, 4):
            column = rep.l_diagonal(k)
            assert len({id(c) for c in column}) < len(column)
            diags = []
            for s in range(1, field.p + 1):
                for i in range(1, field.d + 1):
                    root = field.eps_pow(s) * field.Q(i)
                    diag = rep.ladder_diagonal(k, s, i)
                    assert rep.ladder_diagonal(k, s + field.p, i) is diag
                    entries = {}
                    for c, x in zip(column, diag):
                        assert x == c - root
                        assert entries.setdefault(id(c), x) is x
                    diags.append(diag)
            assert all(a != b for a, b in combinations(diags, 2))


@pytest.mark.parametrize("field", [
    GenericField(2, 1), sample_point(2, 1, 3, random.Random(30)),
])
def test_word_values_share_nothing_mutable(field):
    # reps are shared through the rep memo (`evaluation_units`), so a
    # value that a caller could change in place would change every later
    # verdict
    rep = build_rep(mp(2, 1, [(2,), (1,)]), field)
    for word in ([], [("T", 1)], [("L", 1)], [("ladder", 1, 1, 1)]):
        first = eval_word(rep, word)
        assert type(first) is tuple
        for row in first:
            assert type(row) is tuple
            assert all(type(pair) is tuple for pair in row)
        assert eval_word(rep, word) == first
    assert all(type(d) is tuple for d in rep._ladders.values())


@pytest.fixture
def word_memo():
    memo = seminormal._memo_word
    memo.cache_clear()
    yield memo
    memo.cache_clear()


def test_word_memo_returns_the_evaluated_value(word_memo):
    pt = sample_point(2, 2, 3, random.Random(31))
    rng = random.Random(32)
    words = [_random_word(rng, pt, 3, rng.randint(1, 8)) for _ in range(12)]
    for shape in enumerate_all(2, 2, 3):
        rep = build_rep(shape, pt)
        for word in words:
            expect = _dense_word(rep, word)
            first = eval_word(rep, word)
            _check_rows(first, expect, pt.zero)
            # a repeat is a hit: the same value, not a recomputed one
            assert eval_word(rep, word) is first
            word_memo.cache_clear()
            again = eval_word(rep, word)
            assert again == first
            _check_rows(again, expect, pt.zero)


def test_word_memo_checks_scalar_tokens_before_lookup(word_memo):
    # True == 1 == 1.0 with equal hashes, so a memo keyed on the raw
    # tokens would return the value of ("scal", 1) for ("scal", True)
    pt = sample_point(2, 1, 3, random.Random(33))
    rep = build_rep(mp(2, 1, [(2,), (1,)]), pt)
    eval_word(rep, [("scal", 1)])
    eval_word(rep, [("Tshift", 1, 1)])
    assert word_memo.cache_info().currsize == 2
    for bad in ([("scal", True)], [("scal", 1.0)], [("Tshift", 1, True)]):
        with pytest.raises(TypeError):
            eval_word(rep, bad)
    with pytest.raises(TypeError, match="rational function"):
        eval_word(rep, [("Tshift", 1, K21.one)])
    assert word_memo.cache_info().hits == 0


@pytest.mark.parametrize("backend", ["point", "generic"])
def test_scalar_tokens_are_read_once_on_a_miss(backend, word_memo,
                                               monkeypatch):
    field = (sample_point(3, 1, 3, random.Random(36)) if backend == "point"
             else GenericField(3, 1))
    rep = build_rep(mp(3, 1, [(2,), (1,), ()]), field)
    read = type(field).scalar
    calls = []

    def counted(self, value):
        calls.append(value)
        return read(self, value)

    monkeypatch.setattr(type(field), "scalar", counted)
    value = eval_word(rep, [("scal", 2), ("Tshift", 1, 3)])
    assert calls == [2, 3]
    assert word_memo.cache_info().misses == (0 if field.is_generic else 1)
    monkeypatch.undo()
    _check_rows(value, _dense_word(rep, [("scal", 2), ("Tshift", 1, 3)]),
                field.zero)


def test_word_indices_are_typed_before_lookup(word_memo):
    # 1.0 and True hash and compare equal to 1, so a warm memo would
    # return L_1 or T_1 for them; a fresh one must refuse them too
    pt = sample_point(2, 1, 3, random.Random(35))
    rep = build_rep(mp(2, 1, [(2,), (1,)]), pt)
    bad = [[("L", 1.0)], [("L", True)], [("T", True)], [("T", 1.0)],
           [("Tshift", True, 1)], [("ladder", 1, 1.0, 1)],
           [("ladder", 1, 1, True)], [("T", 1), ("L", "1")]]
    for warm in (False, True):
        if warm:
            for word in ([("L", 1)], [("T", 1)], [("Tshift", 1, 1)],
                         [("ladder", 1, 1, 1)]):
                eval_word(rep, word)
        for word in bad:
            with pytest.raises(TypeError, match="must be ints"):
                eval_word(rep, word)
    assert word_memo.cache_info().hits == 0
    generic = build_rep(mp(2, 1, [(2,), (1,)]), K21)
    for word in bad:
        with pytest.raises(TypeError, match="must be ints"):
            eval_word(generic, word)


def test_word_memo_stays_within_its_bound(word_memo):
    pt = sample_point(2, 1, 3, random.Random(34))
    rep = build_rep(mp(2, 1, [(2,), (1,)]), pt)
    words = [[("scal", k), ("T", 1)] for k in range(WORD_CACHE_SIZE + 20)]
    for word in words:
        eval_word(rep, word)
        assert word_memo.cache_info().currsize <= WORD_CACHE_SIZE
    assert word_memo.cache_info().currsize == WORD_CACHE_SIZE
    # the first words were evicted; evaluated again they are still right
    for word in words[:20] + words[-5:]:
        _check_rows(eval_word(rep, word), _dense_word(rep, word), pt.zero)
    assert word_memo.cache_info().currsize == WORD_CACHE_SIZE


def test_word_memo_skips_rep_builds_and_the_generic_field(word_memo):
    pt = sample_point(2, 1, 3, random.Random(35))
    for field in (pt, K21):
        # the L-recursion self-check evaluates words once, past the memo
        for shape in enumerate_all(2, 1, 3):
            SeminormalRep((shape,), field)
        assert word_memo.cache_info().currsize == 0
    rep = SeminormalRep((mp(2, 1, [(2,), (1,)]),), K21)
    eval_word(rep, [("T", 1), ("L", 2)])
    assert word_memo.cache_info().currsize == 0
    # so do the relation checks, whose words are each used once: the memo
    # (one entry, so an eviction would show) is untouched and keeps no
    # fresh rep alive
    eval_word(build_rep(mp(2, 1, [(1,), (1,)]), pt), [("T", 1)])
    before = word_memo.cache_info()
    refs = []
    for shape in enumerate_all(2, 1, 3):
        rep = build_rep(shape, pt)
        assert check_relations(rep) == []
        refs.append(weakref.ref(rep))
    del rep
    gc.collect()
    assert word_memo.cache_info() == before
    assert [ref() for ref in refs] == [None] * len(refs)


def test_sparse_products_match_mat_mul():
    A = ((Fraction(1), Fraction(0), Fraction(2)),
         (Fraction(0), Fraction(0), Fraction(0)),
         (Fraction(-3), Fraction(1, 2), Fraction(5)))
    B = ((Fraction(0), Fraction(4), Fraction(0)),
         (Fraction(7), Fraction(0), Fraction(-1)),
         (Fraction(0), Fraction(0), Fraction(3)))
    # row 0 of C times B cancels in column 2
    C = ((Fraction(0), Fraction(3), Fraction(1)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(0)))
    rows = (((1, Fraction(4)),),
            ((0, Fraction(7)), (2, Fraction(-1))),
            ((2, Fraction(3)),))
    zero = Fraction(0)
    assert mat_rows(B) == rows
    assert rows_dense(rows, zero) == B
    d = (Fraction(2), Fraction(0), Fraction(-1, 3))
    for X in (A, B, C):
        for got, expect in (
                (rows_mul(mat_rows(X), rows), mat_mul(X, B)),
                (rows_mul(rows, mat_rows(X)), mat_mul(B, X)),
                (rows_scale_cols(mat_rows(X), d),
                 mat_mul(X, mat_diag(d, zero)))):
            # the dense product with its zeros left out
            assert got == mat_rows(expect)
        assert rows_trace(mat_rows(X), zero) == X[0][0] + X[1][1] + X[2][2]
    assert rows_mul(mat_rows(C), rows)[0] == ((0, Fraction(21)),)
    assert rows_diag(d) == mat_rows(mat_diag(d, zero))
    with pytest.raises(ValueError):
        rows_mul(mat_rows(A), rows[:2])
    with pytest.raises(ValueError):
        rows_scale_cols(mat_rows(A), d[:2])


def test_equal_points_hash_alike_and_share_a_rep(monkeypatch):
    zeta, one = CycRat.make(3, [0, 1]), CycRat.from_rational(3, 1)
    # one point from ints, Fractions and CycRats, and from its own JSON;
    # at a rational and at an irrational q
    for coords in ([(5, 3), (Fraction(10, 2), Fraction(3)), (5 * one, 3 * one)],
                   [(2 + zeta, 3 - zeta)]):
        points = [SpecPoint(3, 3, q, [Q]) for q, Q in coords]
        points.append(SpecPoint.from_json(points[0].to_json()))
        assert all(pt == points[0] for pt in points)
        assert len({hash(pt) for pt in points}) == 1
        # held, so no id of a freed rep can be reused in between
        units = [evaluation_units(3, 1, 2, pt) for pt in points]
        assert all(u is units[0] for u in units)
        # the hash was taken when the point was built
        with monkeypatch.context() as m:
            m.setattr(CycRat, "__hash__",
                      lambda self: pytest.fail("a point rehashed"))
            assert hash(points[-1]) == hash(points[0])


def test_rep_cache_stops_growing_at_cap():
    # the evaluation units are the one rep memo, for points and the
    # generic field alike
    memo = seminormal._cached_units
    memo.cache_clear()
    try:
        cells = [(1, SpecPoint(2, 2, q, [3]))
                 for q in range(2, UNITS_CACHE_SIZE + 12)]
        cells += [(1, K21), (2, K21)]
        for n, field in cells:
            units = evaluation_units(2, 1, n, field)
            assert evaluation_units(2, 1, n, field) is units
        info = memo.cache_info()
        assert info.currsize == info.maxsize == UNITS_CACHE_SIZE
        assert info.misses == info.hits == len(cells)
    finally:
        memo.cache_clear()


def test_inverses():
    for field in (K21, sample_point(2, 1, 3, random.Random(1))):
        for shape in enumerate_all(2, 1, 3):
            rep = build_rep(shape, field)
            for i in range(3):
                t, tinv = eval_dense(rep, [("T", i)]), t_inverse(rep, i)
                assert mat_mul(t, tinv) == mat_identity(rep)
                assert mat_mul(tinv, t) == mat_identity(rep)
                if i:
                    # T_i^-1 = q^-1 (T_i + 1 - q) as one word
                    assert eval_dense(rep, [
                        ("scal", field.q_power(-1)),
                        ("Tshift", i, field.one - field.q)]) == tinv
            for bad in ([("T", 3)], [("T", -1)], [("L", 0)]):
                with pytest.raises(ValueError):
                    eval_word(rep, bad)


def test_shift_tokens_are_checked():
    pt = sample_point(2, 1, 3, random.Random(2))
    for field in (K21, pt):
        rep = build_rep(mp(2, 1, [(2,), (1,)]), field)
        for bad in ([("Tshift", 0, 1)], [("Tshift", 3, 1)]):
            with pytest.raises(ValueError):
                eval_word(rep, bad)
        with pytest.raises(TypeError, match="boolean"):
            eval_word(rep, [("Tshift", 1, True)])
    rep = build_rep(mp(2, 1, [(2,), (1,)]), pt)
    with pytest.raises(TypeError, match="rational function"):
        eval_word(rep, [("Tshift", 1, K21.q)])


def test_scalar_tokens_are_checked():
    pt = sample_point(2, 1, 2, random.Random(2))
    rep = build_rep(mp(2, 1, [(2,), ()]), pt)
    with pytest.raises(TypeError, match="rational function"):
        eval_word(rep, [("scal", K21.q), ("T", 1)])
    for value in ([1, 2], True, 1.5):
        with pytest.raises(TypeError):
            eval_word(rep, [("scal", value)])
    assert eval_word(rep, [("scal", Fraction(1, 2)), ("scal", pt.q)]) \
        == (((0, pt.q * Fraction(1, 2)),),)


def test_t0_inverse_via_word():
    rep = build_rep(mp(2, 1, [(1,), (1,)]), K21)
    assert mat_mul(eval_dense(rep, [("T", 0)]), t_inverse(rep, 0)) \
        == mat_identity(rep)


# ---------------------------------------------------------------------------
# characters

def test_character_identity_is_dimension():
    shape = mp(2, 1, [(2,), (1,)])
    assert character(shape, [], K21) == K21.scalar(len(enumerate_std(shape)))


def test_character_t1():
    assert character(mp(2, 1, [(2,), ()]), [("T", 1)], K21) == K21.q
    assert character(mp(2, 1, [(1, 1), ()]), [("T", 1)], K21) == -K21.one


def test_character_l1():
    shape = mp(2, 1, [(1,), (1,)])
    got = character(shape, [("L", 1)], K21)
    expect = sum(
        (content(s, 1, K21) for s in enumerate_std(shape)), K21.zero)
    assert got == expect


# ---------------------------------------------------------------------------
# element equality

def test_element_equal_jm_definition():
    w1 = [("T", 1), ("L", 1), ("T", 1)]
    w2 = [("scal", K21.q), ("L", 2)]
    assert element_equal(2, 1, 2, w1, w2, mode_fields(2, 1, 2, "symbolic"))


def test_element_equal_jm_commutation():
    w1 = [("L", 1), ("L", 2), ("T", 1)]
    w2 = [("T", 1), ("L", 1), ("L", 2)]
    assert element_equal(2, 1, 2, w1, w2, mode_fields(2, 1, 2, "symbolic"))
    assert element_equal(2, 1, 3, w1, w2, mode_fields(
        2, 1, 3, "random", trials=2, rng=random.Random(4)))


def test_element_equal_mixed_braid():
    w1 = [("T", 0), ("T", 1), ("T", 0), ("T", 1)]
    w2 = [("T", 1), ("T", 0), ("T", 1), ("T", 0)]
    assert element_equal(2, 1, 2, w1, w2, mode_fields(2, 1, 2, "symbolic"))


def test_element_equal_detects_difference():
    assert not element_equal(2, 1, 2, [("T", 1)], [("T", 0)],
                             mode_fields(2, 1, 2, "symbolic"))
    assert not element_equal(2, 1, 3, [("L", 2)], [("L", 3)], mode_fields(
        2, 1, 3, "random", trials=2, rng=random.Random(8)))


def test_element_equal_needs_a_field():
    with pytest.raises(ValueError, match="no points"):
        element_equal(2, 1, 2, [("T", 1)], [("T", 1)], points=[])


def test_mode_fields_forms():
    assert mode_fields(1, 2, 2, "symbolic") == [GenericField(1, 2)]
    points = mode_fields(2, 1, 3, "random", trials=3, rng=random.Random(5))
    rng = random.Random(5)
    assert points == [sample_point(2, 1, 3, rng) for _ in range(3)]
    assert mode_fields(2, 1, 3, "symbolic", points=points[:1]) == points[:1]
    assert mode_fields(2, 1, 2, "auto") == [GenericField(2, 1)]
    for trials in (0, -1):
        for mode in ("symbolic", "random", "auto"):
            with pytest.raises(ValueError, match="trials"):
                mode_fields(2, 1, 2, mode, trials=trials)
    with pytest.raises(ValueError, match="unknown mode"):
        mode_fields(2, 1, 2, "exact")


def test_auto_rule_reads_the_dimension_in_closed_form():
    # the squared dimensions of all modules of a cell sum to the
    # dimension (p*d)^n * n! of the algebra, which the auto rule reads
    # instead of enumerating the shapes: symbolic up to 40, or at p = 1
    for p in range(1, 5):
        for d in range(1, 4):
            for n in range(6):
                total = sum(count_std(s) ** 2 for s in enumerate_all(p, d, n))
                assert total == (p * d) ** n * factorial(n), (p, d, n)
                (field, *_) = mode_fields(p, d, n, "auto", trials=1,
                                          rng=random.Random(n))
                assert field.is_generic == (total <= 40 or p == 1), (p, d, n)


def test_cyclotomic_params_order():
    # the cyclotomic word of T_0 runs over the parameters in block order,
    # (eps Q_1, eps Q_2, eps^2 Q_1, eps^2 Q_2) at (p, d) = (2, 2)
    pt = SpecPoint(p=2, N=2, q_val=Fraction(2),
                   Q_vals=(Fraction(3), Fraction(5)))
    name, word, _ = seminormal._relations(pt, 1)[0]
    assert name == "cyclotomic relation for T_0"
    assert word == [("ladder", 1, 1, 1), ("ladder", 1, 1, 2),
                    ("ladder", 1, 2, 1), ("ladder", 1, 2, 2)]
    eps = pt.eps_pow(1)
    rho = [eps * pt.Q(1), eps * pt.Q(2), pt.Q(1), pt.Q(2)]
    rep = build_rep(mp(2, 2, [(1,), (), (), ()]), pt)
    for item, root in zip(word, rho):
        assert rep.ladder_diagonal(*item[1:]) \
            == tuple(c - root for c in rep.l_diagonal(1))


def test_l_recursion_check_trips_on_injected_fault(monkeypatch):
    from cyclohecke import seminormal

    # the two sides of every recursion check then differ
    monkeypatch.setattr(seminormal, "_eval_word", lambda rep, word: word)
    with pytest.raises(RuntimeError, match="internal: L_2 recursion"):
        SeminormalRep((mp(2, 1, [(1,), (1,)]),), K21)
