from random import Random

import pytest

from cyclohecke import elements, seminormal
from cyclohecke.combin import (
    Multipartition,
    compositions,
    enumerate_all,
    enumerate_pdb,
    partial_sum,
    wab_perm,
    wb_perm,
)
from cyclohecke.elements import (
    VerificationError,
    check_identities,
    flam_eigen_oracle,
    identities,
    is_identity_monomial,
    ll_range_word,
    ll_word,
    shift_factor_word,
    superscripts,
    t_ab_word,
    tb_word,
    tensor_basis,
    theta_word,
    trace,
    trace_vbtb,
    vb_word,
    verify_changing,
    verify_comparison,
    verify_pleftmult,
    vbtb_trace_closed,
)
from cyclohecke.exactnum import (
    GenericField,
    RatFunc,
    SpecPoint,
    generic_field,
    sample_point,
)
from cyclohecke.scalars import f_lambda_closed
from cyclohecke.seminormal import (
    SeminormalRep,
    build_rep,
    element_equal,
    eval_word,
    evaluation_units,
    mode_fields,
)
from cyclohecke.tableau import count_std

from helpers import (
    eval_sum,
    perm_from_word,
    perm_inv,
    shift_run_word,
    twisted_word,
    ub_minus_word,
    ub_plus_word,
    ulam_plus_word,
    vb_minus_word,
    vb_plus_word,
    young_alt_word,
    young_sym_word,
)


def mp(p, d, comps):
    return Multipartition(p, d, comps)


K21 = generic_field(2, 1)
K31 = generic_field(3, 1)
K22 = generic_field(2, 2)


# ---------------------------------------------------------------------------
# word builders

def test_superscripts_window():
    assert superscripts(1, 2, 3) == [1, 2]
    assert superscripts(2, 3, 3) == [2, 3]
    assert superscripts(3, 4, 3) == [1, 3]
    assert superscripts(4, 5, 3) == [1, 2]
    assert superscripts(2, 2, 2) == [2]
    assert superscripts(3, 3, 2) == [1]


@pytest.mark.parametrize("p", range(1, 7))
def test_superscripts_are_the_window_mod_p(p):
    # a window of up to p twists i..j is the set of its residues; the
    # p - 1 twists other than t, t+1..t+p-1, are none at p = 1
    for i in range(1, 2 * p + 2):
        for j in range(i - 1, i + p):
            want = sorted({(k - 1) % p + 1 for k in range(i, j + 1)})
            assert superscripts(i, j, p) == want, (i, j)
    for t in range(1, p + 1):
        others = [s for s in range(1, p + 1) if s != t]
        assert superscripts(t + 1, t + p - 1, p) == others


def test_ll_word_single_factor():
    assert ll_word(1, 1, 1, 1) == [("ladder", 1, 1, 1)]
    assert ll_word(1, 1, 2, 1) == []
    assert ll_word(2, 3, 1, 2) == [("ladder", 1, 3, 1), ("ladder", 1, 3, 2),
                                   ("ladder", 2, 3, 1), ("ladder", 2, 3, 2)]
    with pytest.raises(ValueError):
        ll_word(1, 1, 0, 1)


def test_ll_range_word_counts():
    assert len(ll_range_word(3, 1, 2, 3, 1, 2)) == 4
    assert len(ll_range_word(2, 2, 2, 2, 1, 3)) == 6
    twisted = twisted_word(ll_range_word(2, 1, 2, 2, 1, 1), 1)
    assert twisted == ll_word(1, 3, 1, 1)


def test_t_ab_word_is_reduced():
    word = t_ab_word(1, 2)
    assert len(word) == 2
    letters = [i for _, i in word]
    assert perm_from_word(3, letters) == wab_perm(1, 2)
    assert t_ab_word(0, 3) == [] and t_ab_word(3, 0) == []
    with pytest.raises(ValueError):
        t_ab_word(-1, 2)


def test_tb_word_length():
    word = tb_word((2, 1))
    assert len(word) == 2
    letters = [i for _, i in word]
    assert perm_from_word(3, letters) == wb_perm((2, 1))


def test_vb_word_pure_ladder_for_corner_composition():
    for p, d, n in [(2, 1, 2), (3, 1, 2), (2, 2, 2)]:
        b = (n,) + (0,) * (p - 1)
        word = vb_word(b, d)
        assert all(tok[0] == "ladder" for tok in word)
        assert len(word) == d * n * (p - 1)
    assert vb_word((2, 0), 1) == ll_word(1, 2, 1, 2)
    # the words carry no field; the oracle checks that b fits its field
    with pytest.raises(ValueError, match="3 blocks"):
        flam_eigen_oracle((1, 1, 1), K21)


def test_shift_factor_counts():
    b = (2, 1)
    n = 3
    for t in (1, 2):
        word = shift_factor_word(b, 1, t)
        bt = b[t - 1]
        ladders = [tok for tok in word if tok[0] == "ladder"]
        swaps = [tok for tok in word if tok[0] == "T"]
        assert len(ladders) == 1 * (2 - 1) * bt
        assert len(swaps) == bt * (n - bt)
    word = shift_factor_word((1, 1), 2, 3)
    assert word == shift_factor_word((1, 1), 2, 1)


def test_shift_run_word():
    b = (1, 1)
    run = shift_run_word(b, 1, 0, 2)
    expected = shift_factor_word(b, 1, 2) + shift_factor_word(b, 1, 1)
    assert run == expected
    assert shift_run_word(b, 1, 1, 0) == []
    with pytest.raises(ValueError):
        shift_run_word(b, 1, 1, -1)


# ---------------------------------------------------------------------------
# rewriting identities

def test_verify_changing_examples():
    assert verify_changing((2, 1), 1, 1)
    assert verify_changing((2, 1), 1, 2)
    assert verify_changing((1, 1, 1), 1, 2)
    with pytest.raises(ValueError):
        verify_changing((2, 1), 1, 3)


def test_verify_changing_all_pivots():
    for b in compositions(2, 2):
        for j in (1, 2):
            assert verify_changing(b, 2, j)
    for b in compositions(2, 3):
        for j in (1, 2, 3):
            assert verify_changing(b, 1, j)


def test_verify_pleftmult_examples():
    assert verify_pleftmult((1, 1), 1)
    assert verify_pleftmult((2, 1), 1)
    assert verify_pleftmult((2, 0), 1)
    assert verify_pleftmult((0, 2), 2)
    assert verify_pleftmult((1, 1, 0), 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_verify_pleftmult_one_block(n, d):
    # at p = 1 the shift factor Y_1 holds no ladder, only the empty swap,
    # so the cycle is v_b T_b = 1
    assert shift_factor_word((n,), d, 1) == t_ab_word(n, 0) == []
    assert verify_pleftmult((n,), d)


def test_half_word_factorizations():
    for d, b in [(1, (2, 1)), (1, (1, 1, 1)), (2, (1, 1))]:
        p = len(b)
        assert element_equal(p, d, sum(b), vb_word(b, d),
                             vb_plus_word(b, d) + ub_plus_word(b, d))
        assert element_equal(p, d, sum(b), vb_word(b, d),
                             ub_minus_word(b, d) + vb_minus_word(b, d))


def test_element_equal_fails_at_the_second_point_only():
    # T_0^2 = Q_1^2 at p = 2, d = 1, n = 1: the word equals 9 at Q_1 = 3
    # and not at Q_1 = 5, so a mismatch at any one point decides
    first, second = SpecPoint(2, 2, 2, [3]), SpecPoint(2, 2, 2, [5])
    square, nine = [("T", 0), ("T", 0)], [("scal", 9)]
    assert element_equal(2, 1, 1, square, nine, points=[first])
    assert not element_equal(2, 1, 1, square, nine, points=[first, second])


def test_one_step_shift_identity():
    for d, b in [(1, (2, 1)), (1, (1, 1, 1)), (2, (1, 1))]:
        p = len(b)
        rotated = b[1:] + b[:1]
        assert element_equal(
            p, d, sum(b),
            shift_factor_word(b, d, 1) + vb_word(b, d),
            twisted_word(vb_word(rotated, d), 1)
            + t_ab_word(partial_sum(b, 2, p), b[0])
            + ll_range_word(p, d, 2, p, 1, b[0]),
        )


def test_vb_commutation_spot_checks():
    for d, b in [(1, (2, 1)), (1, (1, 2)), (1, (1, 1, 1)), (2, (1, 1))]:
        p = len(b)
        n = sum(b)
        vb = vb_word(b, d)
        winv = perm_inv(wb_perm(b))
        excluded = {partial_sum(b, t, p) for t in range(1, p + 1)}
        for i in range(1, n):
            if i in excluded:
                continue
            assert element_equal(p, d, n, [("T", i)] + vb,
                                 vb + [("T", winv[i - 1])])
        for j in range(1, n + 1):
            assert element_equal(p, d, n, [("L", j)] + vb,
                                 vb + [("L", winv[j - 1])])


# ---------------------------------------------------------------------------
# the canonical trace

def test_trace_identity():
    one = GenericField(1, 1)
    assert trace(2, [], one) == one.one
    assert trace(2, [], K21) == K21.one


def test_trace_kills_nontrivial_permutations():
    one = GenericField(1, 1)
    assert trace(2, [("T", 1)], one) == one.zero
    assert trace(3, [("T", 1), ("T", 2)], one) == one.zero
    assert trace(2, [("T", 1)], K21) == K21.zero


def test_trace_kills_l_powers():
    assert trace(1, [("L", 1)], K21) == K21.zero
    for a in (1, 2):
        assert trace(1, [("L", 1)] * a, K31) == K31.zero
    for a in (1, 2, 3):
        assert trace(1, [("L", 1)] * a, K22) == K22.zero


def test_schur_inverse_cache_stops_growing_at_cap():
    from cyclohecke import elements

    cached = elements._schur_inverses
    cached.cache_clear()
    try:
        for q in range(2, elements.SCHUR_INVERSES_CACHE_SIZE + 12):
            point = SpecPoint(2, 2, q, [3])
            assert trace(1, [], point) == point.one
        info = cached.cache_info()
        assert info.currsize == info.maxsize \
            == elements.SCHUR_INVERSES_CACHE_SIZE
    finally:
        cached.cache_clear()


def test_trace_vbtb_corner():
    res = trace_vbtb((2, 0), K21)
    assert res.matched
    assert res.value == K21.Q_power(1, 2)
    assert res.value == vbtb_trace_closed((2, 0), K21)


def test_trace_vbtb_balanced():
    res = trace_vbtb((1, 1), K21)
    assert res.matched
    assert res.value == K21.q * K21.eps_pow(-1) * K21.Q_power(1, 2)


def test_trace_vbtb_specialized_grid():
    rng = Random(7)
    for p, d in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        point = sample_point(p, d, 2, rng)
        for b in compositions(2, p):
            res = trace_vbtb(b, point)
            assert res.matched, (p, d, b)


# ---------------------------------------------------------------------------
# eigenvalue oracle for f

def test_flam_oracle_example():
    got = flam_eigen_oracle((1, 1), K21)
    shape = mp(2, 1, [(1,), (1,)])
    assert set(got) == {shape}
    assert got[shape] == f_lambda_closed(shape, (1, 1), K21)
    assert count_std(shape) == 2


def test_flam_oracle_matches_closed_formula():
    rng = Random(13)
    grids = [(2, 1), (3, 1), (2, 2)]
    for p, d in grids:
        point = sample_point(p, d, 2, rng)
        for b in compositions(2, p):
            got = flam_eigen_oracle(b, point)
            assert set(got) == set(enumerate_pdb(d, b))
            for shape, value in got.items():
                assert value
                assert value == f_lambda_closed(shape, b, point), (b, shape)


def test_flam_oracle_symbolic_agreement():
    for b in compositions(2, 2):
        got = flam_eigen_oracle(b, K21)
        for shape, value in got.items():
            assert value == f_lambda_closed(shape, b, K21)


@pytest.mark.parametrize("p, d, n", [(2, 2, 2), (2, 1, 3)])
def test_flam_oracle_generic_matches_closed_formula(p, d, n):
    # over the generic field the scalar is an exact Laurent quotient of
    # entries whose numerators have several terms, and the rank of v_b
    # comes from an elimination that does not divide
    field = GenericField(p, d)
    for b in compositions(n, p):
        got = flam_eigen_oracle(b, field)
        assert set(got) == set(enumerate_pdb(d, b))
        for shape, value in got.items():
            assert value == f_lambda_closed(shape, b, field), (b, shape)


def test_flam_oracle_generic_rejects_an_inexact_quotient(monkeypatch):
    # the entry of v_b T_b v_b that the scalar is read from gains a pole
    # at q = Q_1, so it no longer divides by the entry of v_b there, a
    # sum, and `/` refuses the quotient.
    # Over the generic field every shape is its own evaluation unit, so
    # the products come in pairs, one pair per shape that v_b keeps.
    field = GenericField(2, 1)
    assert len(evaluation_units(2, 1, 2, field)) == len(enumerate_all(2, 1, 2))
    product = elements.rows_mul
    quotient = RatFunc.__truediv__
    calls, inexact = [], []

    def patched(A, B):
        out = product(A, B)
        calls.append(B)
        if len(calls) % 2:
            return out
        # the second product of a unit ends with v_b itself, B
        a = next(a for a, row in enumerate(B) if row)
        j = B[a][0][0]
        entries = dict(out[a])
        entries[j] = entries.get(j, field.zero) \
            + field.one / (field.q - field.Q(1))
        return out[:a] + (tuple(sorted(entries.items())),) + out[a + 1:]

    def recording(y, x):
        try:
            return quotient(y, x)
        except ArithmeticError:
            inexact.append(x)
            raise

    monkeypatch.setattr(elements, "rows_mul", patched)
    monkeypatch.setattr(RatFunc, "__truediv__", recording)
    with pytest.raises(VerificationError, match="not proportional"):
        flam_eigen_oracle((1, 1), field)
    assert len(calls) == 2
    assert len(inexact) == 1 and inexact[0].poly is not None


def test_flam_oracle_rejects_a_product_out_of_proportion(monkeypatch):
    # one added to every entry of both products, zeros included: a zero
    # entry of v_b then faces a nonzero entry of v_b T_b v_b
    point = sample_point(2, 1, 3, Random(4))
    product = elements.rows_mul

    def plus_one(A, B):
        return tuple(
            tuple((j, dict(row).get(j, point.zero) + 1)
                  for j in range(len(A)))
            for row in product(A, B))

    monkeypatch.setattr(elements, "rows_mul", plus_one)
    with pytest.raises(VerificationError, match="not proportional"):
        flam_eigen_oracle((2, 1), point)


def test_flam_oracle_checks_where_v_b_is_zero(monkeypatch):
    # v_b T_b v_b gains one nonzero entry at one position where v_b is
    # zero: inside the block of a shape v_b keeps, then off every block
    # of the direct sum.  A check over the stored entries of v_b alone,
    # or over each block's own columns, would pass it.
    point = sample_point(2, 1, 3, Random(4))
    (rep,) = evaluation_units(2, 1, 3, point)
    own = [(lo, hi) for shape, lo, hi in rep.blocks
           if shape.composition() == (2, 1)]
    product = elements.rows_mul
    for off_block in (False, True):
        calls, injected = [], []

        def patched(A, B):
            out = product(A, B)
            calls.append(B)
            if len(calls) % 2:
                return out
            # the second product ends with v_b itself, B
            a, j = next((a, j) for lo, hi in own for a in range(lo, hi)
                        for j in range(rep.dim)
                        if j not in dict(B[a]) and (lo <= j < hi) != off_block)
            assert j not in dict(out[a])
            injected.append((a, j))
            x = next(x for row in B for _, x in row)
            patched_row = tuple(sorted(out[a] + ((j, x),)))
            return out[:a] + (patched_row,) + out[a + 1:]

        with monkeypatch.context() as m:
            m.setattr(elements, "rows_mul", patched)
            with pytest.raises(VerificationError, match="not proportional"):
                flam_eigen_oracle((2, 1), point)
        assert len(calls) == 2
        (a, j), = injected
        block = next((lo, hi) for lo, hi in own if lo <= a < hi)
        assert (block[0] <= j < block[1]) != off_block


def test_flam_oracle_rejects_a_v_b_of_the_wrong_rank(monkeypatch):
    # P T_b^-1, with P the projection on the modules of composition b,
    # passes every check of the oracle but the rank: it is zero on the
    # other modules, and (P T_b^-1) T_b (P T_b^-1) = P T_b^-1, scalar 1.
    # Its rank is the dimension of each module, 3 for the shapes of
    # b = (2, 1), where v_b has rank 1.
    point = sample_point(2, 1, 3, Random(4))
    b = (2, 1)
    vb = vb_word(b, 1)
    qinv = point.q_power(-1)
    tb_inverse = [item for _, i in reversed(tb_word(b))
                  for item in (("scal", qinv), ("Tshift", i, 1 - point.q))]
    real = elements.eval_word

    def patched(rep, word):
        if word != vb:
            return real(rep, word)
        value = real(rep, tb_inverse)
        keep = [shape.composition() == b
                for shape, lo, hi in rep.blocks for _ in range(lo, hi)]
        return tuple(row if k else () for row, k in zip(value, keep))

    monkeypatch.setattr(elements, "eval_word", patched)
    with pytest.raises(VerificationError, match="rank of v_b is off"):
        flam_eigen_oracle(b, point)


def test_flam_oracle_rejects_a_v_b_that_does_not_annihilate(monkeypatch):
    # v_b gains one stored entry in the block of a shape whose composition
    # is not b, which v_b must send to zero
    point = sample_point(2, 1, 2, Random(4))
    b = (1, 1)
    vb = vb_word(b, 1)
    real = elements.eval_word
    patched_blocks = []

    def patched(rep, word):
        value = real(rep, word)
        if word != vb:
            return value
        lo = next(lo for shape, lo, hi in rep.blocks
                  if shape.composition() != b)
        assert not value[lo]
        patched_blocks.append(lo)
        return value[:lo] + (((lo, point.one),),) + value[lo + 1:]

    monkeypatch.setattr(elements, "eval_word", patched)
    with pytest.raises(VerificationError, match="does not annihilate"):
        flam_eigen_oracle(b, point)
    assert patched_blocks


# ---------------------------------------------------------------------------
# trace comparison over the tensor basis

def test_tensor_basis_sizes():
    assert len(tensor_basis(1, (2, 1))) == 2
    assert len(tensor_basis(2, (1, 1))) == 4
    basis = tensor_basis(1, (0, 2))
    assert len(basis) == 2
    idents = [h for h in basis if is_identity_monomial(h)]
    assert len(idents) == 1


def test_theta_word_shifts():
    h = (((1,), (1,)), ((1,), (1,)))
    assert theta_word(h, (1, 1)) == [("L", 1), ("L", 2)]
    swap = (2, 1)
    h2 = (((0, 0), swap), ((0, 0), swap))
    assert theta_word(h2, (2, 2)) == [("T", 1), ("T", 3)]
    h3 = (((0,), (1,)), ((2,), (1,)))
    assert theta_word(h3, (1, 1)) == [("L", 2), ("L", 2)]


def test_verify_comparison_examples():
    assert verify_comparison((1, 1), 1)
    assert verify_comparison((2, 0), 1)
    rng = Random(3)
    point = sample_point(2, 2, 2, rng)
    assert verify_comparison((1, 1), 2, points=[point])


def test_comparison_l_monomials_vanish():
    rng = Random(4)
    point = sample_point(2, 2, 2, rng)
    b = (1, 1)
    vb = vb_word(b, 2)
    tb = tb_word(b)
    base = trace(2, vb + tb, point)
    assert base == vbtb_trace_closed(b, point)
    for h in tensor_basis(2, b):
        value = trace(2, vb + theta_word(h, b) + tb, point)
        if is_identity_monomial(h):
            assert value == base
        else:
            assert value == point.zero


def test_comparison_fails_on_a_nonzero_trace_off_the_identity(monkeypatch):
    # one row of T_2 doubled on the module ((2), (1)), inside the one
    # direct sum at a point.  The trace of the monomial T_1 is now
    # nonzero, so the comparison fails off the identity monomial too.
    point = sample_point(2, 1, 3, Random(3))
    b = (2, 1)
    (rep,) = evaluation_units(2, 1, 3, point)
    corrupt = SeminormalRep(rep.shapes, point)
    lo = next(lo for shape, lo, _ in rep.blocks
              if shape == mp(2, 1, [(2,), (1,)]))
    rows = list(corrupt.trows[2])
    rows[lo] = tuple((j, 2 * x) for j, x in rows[lo])
    corrupt.trows = dict(corrupt.trows)
    corrupt.trows[2] = tuple(rows)
    monkeypatch.setattr(elements, "evaluation_units",
                        lambda p, d, n, field: [corrupt])
    vb, tb = vb_word(b, 1), tb_word(b)
    (h,) = [h for h in tensor_basis(1, b) if not is_identity_monomial(h)]
    assert theta_word(h, b) == [("T", 1)]
    assert trace(3, vb + theta_word(h, b) + tb, point) != point.zero
    assert not verify_comparison(b, 1, points=[point])


# ---------------------------------------------------------------------------
# identity tables and their runner

def test_identity_names_are_unique_and_stable():
    assert [row[0] for row in identities("changing", (2, 1, 1), 1)] \
        == ["1", "2", "3"]
    assert [row[0] for row in identities("pleftmult", (2, 1), 2)] \
        == ["shift cycle"]
    assert [row[0] for row in identities("comparison", (2, 1), 1)] \
        == ["(0, 0)(1, 2) (0,)(1,)", "(0, 0)(2, 1) (0,)(1,)"]
    for kind, b, d in [("changing", (2, 0, 1), 2), ("comparison", (2, 1), 2),
                       ("comparison", (1, 0, 2), 1)]:
        names = [row[0] for row in identities(kind, b, d)]
        assert len(set(names)) == len(names) > 1
        assert names == [row[0] for row in identities(kind, b, d)]
    with pytest.raises(ValueError, match="unknown identity kind"):
        identities("factorization", (1, 1), 1)


def test_comparison_table_compares_the_identity_with_the_closed_trace():
    point = sample_point(2, 1, 2, Random(3))
    rows = identities("comparison", (1, 1), 1)
    assert [row[0] for row in rows] == ["(0,)(1,) (0,)(1,)"]
    (_, lhs, rhs), = rows
    assert lhs == vb_word((1, 1), 1) + tb_word((1, 1))
    assert rhs(point) == vbtb_trace_closed((1, 1), point)
    rows = identities("comparison", (2, 0), 1)
    assert [row[2](point) for row in rows[1:]] == [point.zero]


def _row_doubled(unit, i, a):
    """A copy of the unit whose row a of T_i is doubled."""
    bad = SeminormalRep(unit.shapes, unit.field)
    rows = list(bad.trows[i])
    rows[a] = tuple((j, 2 * x) for j, x in rows[a])
    bad.trows = dict(bad.trows)
    bad.trows[i] = tuple(rows)
    return bad


def _relations_table(*rows):
    return [(name, [("T", i) for i in lhs], [("T", i) for i in rhs])
            for name, lhs, rhs in rows]


def _use_units(monkeypatch, units):
    # element_equal reads seminormal's name, trace reads elements'
    for module in (seminormal, elements):
        monkeypatch.setattr(module, "evaluation_units",
                            lambda p, d, n, field: units)


def test_runner_reads_every_unit_at_a_point(monkeypatch):
    # the units of a point of (3, 1, 4) hold 256 + 14 tableaux; T_2 is
    # wrong only on the module ((3), (1), ()) of the second
    point = sample_point(3, 1, 4, Random(5))
    first, second = evaluation_units(3, 1, 4, point)
    assert (first.dim, second.dim) == (256, 14)
    assert second.shapes[0] == mp(3, 1, [(3,), (1,), ()])
    table = _relations_table(("T1T2T1 = T2T1T2", (1, 2, 1), (2, 1, 2)),
                             ("T1T3 = T3T1", (1, 3), (3, 1)),
                             ("T2T3T2 = T3T2T3", (2, 3, 2), (3, 2, 3)))
    table += identities("comparison", (3, 1, 0), 1)
    assert check_identities(3, 1, 4, table, [point]) == []
    _use_units(monkeypatch, (first, _row_doubled(second, 2, 0)))
    assert check_identities(3, 1, 4, table, [point]) == [
        "T1T2T1 = T2T1T2", "T2T3T2 = T3T2T3",
        "(0, 0, 0)(1, 3, 2) (0,)(1,) ()()", "(0, 0, 0)(2, 3, 1) (0,)(1,) ()()",
        "(0, 0, 0)(3, 1, 2) (0,)(1,) ()()", "(0, 0, 0)(3, 2, 1) (0,)(1,) ()()"]


@pytest.mark.parametrize("comps, failing", [
    ([(3,), ()], ["T1T2T1 = T2T1T2"]),
    ([(2,), (1,)], ["T1T2T1 = T2T1T2", "(0, 0)(1, 2) (0,)(1,)",
                    "(0, 0)(2, 1) (0,)(1,)"]),
])
def test_runner_reads_every_unit_over_the_generic_field(monkeypatch, comps,
                                                        failing):
    # one unit per module; T_2 wrong on the last module, which v_b
    # annihilates for b = (2, 1), or on ((2,), (1,)), which it does not
    units = evaluation_units(2, 1, 3, K21)
    k = [unit.shapes for unit in units].index((mp(2, 1, comps),))
    table = _relations_table(("T1T2T1 = T2T1T2", (1, 2, 1), (2, 1, 2)),
                             ("T0T1T0T1 = T1T0T1T0", (0, 1, 0, 1),
                              (1, 0, 1, 0)))
    table += identities("comparison", (2, 1), 1)
    assert check_identities(2, 1, 3, table, [K21]) == []
    bad = _row_doubled(units[k], 2, 0)
    _use_units(monkeypatch, units[:k] + (bad,) + units[k + 1:])
    assert check_identities(2, 1, 3, table, [K21]) == failing


def test_element_equal_reads_every_module():
    # L_1 = eps^2 Q_1 holds on the first two modules, ((), (1, 1)) and
    # ((), (2,)), and on no other
    assert not element_equal(2, 1, 2, [("ladder", 1, 2, 1)], [("scal", 0)],
                             [GenericField(2, 1)])


# ---------------------------------------------------------------------------
# row stabilizer words and the multipartition ladder

def test_young_sym_word_row_symmetry():
    # (sum of T_w) T_1 = q (sum of T_w) on every module, at the points
    # the auto mode picks
    la = mp(2, 1, [(2, 1), ()])
    terms = young_sym_word(la)
    assert len(terms) == 2
    for field in mode_fields(2, 1, 3):
        for shape in enumerate_all(2, 1, 3):
            rep = build_rep(shape, field)
            assert eval_sum(rep, [w + [("T", 1)] for w in terms]) \
                == eval_sum(rep, [[("scal", field.q)] + w for w in terms])


def test_young_alt_word_signs():
    la = mp(2, 1, [(2,), ()])
    terms = young_alt_word(la)
    assert sorted(terms, key=len) == [[], [("scal", -1), ("T", 1)]]
    rep_row = build_rep(mp(2, 1, [(2,), ()]), K21)
    rep_col = build_rep(mp(2, 1, [(1, 1), ()]), K21)
    assert eval_sum(rep_row, terms) == ((K21.one - K21.q,),)
    assert eval_sum(rep_col, terms) == ((K21.scalar(2),),)


def test_young_words_trivial_stabilizer():
    la = mp(2, 1, [(1,), (1, 1)])
    assert young_sym_word(la) == [[]]
    assert young_alt_word(la) == [[]]


def test_ulam_plus_word():
    la = mp(2, 2, [(1,), (), (1,), ()])
    word = ulam_plus_word(la)
    assert word == [("ladder", 1, 1, 2), ("ladder", 2, 2, 2)]
    assert ulam_plus_word(mp(2, 1, [(1,), (1,)])) == []
    # Q_2 is out of range at d = 1, so the word fits no module there
    with pytest.raises(ValueError, match="Q_2"):
        eval_word(build_rep(mp(2, 1, [(1,), (1,)]), K21), word)
