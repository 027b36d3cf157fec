from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclohecke.cli import _criterion_factorization, scalar_to_json
from cyclohecke.combin import (
    Multipartition,
    comp_stats,
    compositions,
    enumerate_all,
    enumerate_pdb,
)
from cyclohecke.exactnum import (
    GenericField,
    generic_field,
    ratfunc_to_json,
    sample_point,
)
from cyclohecke.scalars import (
    _exponents,
    _pair,
    _pair_factor,
    f_lambda_closed,
    g_lambda,
    hook,
    schur_element,
    schur_element_b,
    verify_factorization,
)
from cyclohecke.seminormal import character, mode_fields

from helpers import (
    multiplied_f,
    multiplied_g,
    multiplied_schur,
    multiplied_schur_b,
    reference_json,
    specialize,
)


def mp(p, d, comps):
    return Multipartition(p, d, comps)


def closed_vb_trace(field, b, d, n, p):
    """(-1)^(dn(p-1)) q^l(w_b) eps^(dn p(p-1)/2 - d alpha(b)) (Q_1..Q_d)^(n(p-1))."""
    ab, lwb = comp_stats(b)
    e = d * n * (p * (p - 1) // 2) - d * ab
    value = field.q_power(lwb) * field.eps_pow(e)
    if (d * n * (p - 1)) % 2:
        value = -value
    for c in range(1, d + 1):
        value = value * field.Q_power(c, n * (p - 1))
    return value


# ---------------------------------------------------------------------------
# generalized hooks


def test_hook_examples():
    assert hook((2,), (2,), 1, 1) == 2
    assert hook((2,), (2,), 1, 2) == 1
    assert hook((1,), (1,), 1, 1) == 1
    # leg from the other partition's column: ((1,1))'_1 = 2
    assert hook((2,), (1, 1), 1, 1) == 2 - 1 + 2 - 1 + 1


def test_hook_outside_diagram():
    with pytest.raises(ValueError):
        hook((2,), (2,), 2, 1)
    with pytest.raises(ValueError):
        hook((2,), (2,), 1, 3)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
def test_hook_diagonal_is_ordinary_hook(parts):
    la = tuple(sorted(parts, reverse=True))
    conj = [sum(1 for x in la if x >= j) for j in range(1, la[0] + 1)]
    for i in range(1, len(la) + 1):
        for j in range(1, la[i - 1] + 1):
            arm = la[i - 1] - j
            leg = conj[j - 1] - i
            assert hook(la, la, i, j) == arm + leg + 1


def test_hook_value_twists():
    F = generic_field(2, 2)
    la = mp(2, 2, ((1,), (), (), (1,)))
    # component 1 against component 4: one box, eps^(1-2) q^h Q_1/Q_2 - 1
    # with h = 1, and eps^-1 keyed as eps^1
    expected = F.eps_pow(-1) * F.q * F.Q(1) / F.Q(2) - F.one
    assert _pair(F, la.comps, 2, 2, 1, 4) == expected
    assert _pair_factor(F, (1,), (1,), 1, 1, 2) == expected
    with pytest.raises(ValueError):
        _pair(F, la.comps, 2, 2, 1, 5)


# ---------------------------------------------------------------------------
# Schur elements


def test_schur_rank_one_values():
    F = GenericField(1, 1)
    q, one = F.q, F.one
    assert schur_element(1, mp(1, 1, ((1,),)), F) == one
    assert schur_element(1, mp(1, 1, ((2,),)), F) == q + one
    assert schur_element(1, mp(1, 1, ((1, 1),)), F) == (q + one) / q


def test_schur_rank_one_trace_solve():
    # the two-dimensional algebra determines both Schur elements from
    # Tr(1) = 1 and Tr(T_1) = 0
    F = GenericField(1, 1)
    shapes = [mp(1, 1, ((2,),)), mp(1, 1, ((1, 1),))]
    for word, expected in (([], F.one), ([("T", 1)], F.zero)):
        total = F.zero
        for la in shapes:
            total = total + character(la, word, F) / schur_element(1, la, F)
        assert total == expected


def test_schur_two_component_frozen():
    F = generic_field(2, 1)
    eps, q, one = F.eps_pow(1), F.q, F.one
    la = mp(2, 1, ((2,), ()))
    assert schur_element(2, la, F) == (q + one) * (eps * q - one) * (eps - one)


def test_schur_context_validation():
    F = generic_field(2, 1)
    with pytest.raises(ValueError):
        schur_element(3, mp(2, 1, ((1,), (1,))), F)
    with pytest.raises(ValueError):
        schur_element(4, mp(2, 2, ((1,), (), (), ())), F)


def test_schur_element_b_examples():
    F = generic_field(2, 1)
    q, one = F.q, F.one
    assert schur_element_b(mp(2, 1, ((1,), (1,))), (1, 1), F) == one
    # single nonempty block: one factor, the eps-twist cancelling
    assert schur_element_b(mp(2, 1, ((2,), ())), (2, 0), F) == q + one
    with pytest.raises(ValueError):
        schur_element_b(mp(2, 1, ((2,), ())), (1, 1), F)


def test_schur_element_b_multiblock():
    # both blocks nonempty: the product of the two rank-one solves
    F = generic_field(2, 1)
    q, one = F.q, F.one
    la = mp(2, 1, ((2,), (1, 1)))
    assert schur_element_b(la, (2, 2), F) == (q + one) * (q + one) / q


# ---------------------------------------------------------------------------
# the scalar f


def test_f_frozen_examples():
    F = generic_field(2, 1)
    eps, q, one, Q1 = F.eps_pow(1), F.q, F.one, F.Q(1)
    f = f_lambda_closed(mp(2, 1, ((1,), (1,))), (1, 1), F)
    assert f == eps * Q1 ** 2 * (eps * q - one) ** 2
    f = f_lambda_closed(mp(2, 1, ((2,), ())), (2, 0), F)
    assert f == Q1 ** 2 * (eps * q - one) * (eps - one)


def test_f_block_mismatch():
    F = generic_field(2, 1)
    with pytest.raises(ValueError):
        f_lambda_closed(mp(2, 1, ((1,), (1,))), (2, 0), F)


def test_f_is_laurent():
    for p, d in ((2, 1), (3, 2)):
        F = generic_field(p, d)
        for b in compositions(3, p):
            for la in enumerate_pdb(d, b):
                f = f_lambda_closed(la, b, F)
                g = g_lambda(la, b, F)
                assert len(ratfunc_to_json(f)["den"]) == 1
                assert len(ratfunc_to_json(g)["den"]) == 1


def test_f_equals_schur_ratio_times_trace():
    # f * s_b = s * Tr(v_b T_b) with the trace in its closed monomial form
    for p, d, n in ((2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 2)):
        F = generic_field(p, d)
        for b in compositions(n, p):
            tr = closed_vb_trace(F, b, d, n, p)
            for la in enumerate_pdb(d, b):
                f = f_lambda_closed(la, b, F)
                s = schur_element(la.r, la, F)
                sb = schur_element_b(la, b, F)
                assert f * sb == s * tr, (p, d, b, la.comps)


def test_f_nonzero_at_separated_points():
    rng = Random(7)
    for p, d in ((2, 1), (3, 2)):
        pt = sample_point(p, d, 3, rng)
        for b in compositions(3, p):
            for la in enumerate_pdb(d, b):
                f = f_lambda_closed(la, b, generic_field(p, d))
                assert specialize(f, pt)
                assert f_lambda_closed(la, b, pt)


def test_f_nonzero_at_q_one():
    # q = 1 is separated (though not semisimple) for these parameters and
    # the closed formula stays nonzero there
    from cyclohecke.exactnum import SpecPoint, is_semisimple, is_separated

    pt = SpecPoint(2, 2, 1, (3,))
    assert is_separated(pt, 2) and not is_semisimple(pt, 2)
    la = mp(2, 1, ((1,), (1,)))
    assert f_lambda_closed(la, (1, 1), pt)
    assert g_lambda(la, (1, 1), pt)


# ---------------------------------------------------------------------------
# the root g and the factorization


def test_g_frozen_example():
    F = generic_field(2, 1)
    eps, q, one, Q1 = F.eps_pow(1), F.q, F.one, F.Q(1)
    la = mp(2, 1, ((1,), (1,)))
    g = g_lambda(la, (1, 1), F)
    assert g == Q1 * (eps * q - one)
    assert g ** 2 == eps * f_lambda_closed(la, (1, 1), F)
    exps = _exponents(la, (1, 1))
    assert exps.eps_g == 0
    assert exps.gamma_root == 0
    assert exps.orbit == 1 and exps.split == 2 and exps.root_size == 1


def test_g_equals_f_for_asymmetric_shape():
    F = generic_field(2, 1)
    for comps, b in ((((2,), ()), (2, 0)), (((1,), (2,)), (1, 2))):
        la = mp(2, 1, comps)
        assert la.orbit_order() == (2, 1)
        assert g_lambda(la, b, F) == f_lambda_closed(la, b, F)


def test_factorization_grid():
    for p, d in ((2, 1), (2, 2), (3, 1)):
        for n in (1, 2, 3):
            for b in compositions(n, p):
                for la in enumerate_pdb(d, b):
                    assert verify_factorization(la, b), (p, d, b, la.comps)


def test_factorization_random_mode():
    la = mp(4, 1, ((1,), (1,), (1,), (1,)))
    assert verify_factorization(la, (1, 1, 1, 1),
                                mode_fields(4, 1, 4, "random", trials=2))
    with pytest.raises(ValueError, match="no points"):
        verify_factorization(la, (1, 1, 1, 1), points=[])


def shift_factor(la, t, field):
    """The t-th factor eps^shift g in the telescoping factorization of f."""
    exps = _exponents(la, la.composition())
    shift = -(t - 1) * la.d * exps.orbit * exps.root_size
    return field.eps_pow(shift) * g_lambda(la, la.composition(), field)


def test_shift_factor_base_and_telescoping():
    F = generic_field(4, 1)
    la = mp(4, 1, ((1,), (1,), (1,), (1,)))
    b = (1, 1, 1, 1)
    g = g_lambda(la, b, F)
    assert shift_factor(la, 1, F) == g
    assert _exponents(la, b).split == 4
    product = F.one
    for t in range(1, 5):
        product = product * shift_factor(la, t, F)
    assert product == f_lambda_closed(la, b, F)


def test_shift_factor_trivial_split():
    F = generic_field(2, 1)
    la = mp(2, 1, ((2,), ()))
    assert _exponents(la, (2, 0)).split == 1
    assert shift_factor(la, 1, F) == f_lambda_closed(la, (2, 0), F)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_factorization_at_point(data):
    p = data.draw(st.sampled_from([2, 3, 4]), label="p")
    d = data.draw(st.integers(min_value=1, max_value=2), label="d")
    orbit = data.draw(st.sampled_from([o for o in range(1, p + 1) if p % o == 0]),
                      label="orbit")
    slice_comps = []
    for _ in range(orbit * d):
        parts = data.draw(
            st.lists(st.integers(min_value=1, max_value=2), min_size=0, max_size=2),
            label="component",
        )
        slice_comps.append(tuple(sorted(parts, reverse=True)))
    la = mp(p, d, tuple(slice_comps) * (p // orbit))
    n = la.size
    if n == 0:
        return
    pt = sample_point(p, d, n, Random(1000 * p + d))
    split = la.orbit_order()[1]
    o = la.orbit_order()[0]
    e = d * o * (n // split) * (split * (split - 1) // 2)
    f = f_lambda_closed(la, la.composition(), pt)
    g = g_lambda(la, la.composition(), pt)
    assert g ** split == pt.eps_pow(e) * f


@pytest.mark.parametrize("p, d", [(p, d) for p in (1, 2, 3, 4)
                                  for d in (1, 2)])
def test_closed_forms_match_multiplied_out_ratfuncs(p, d):
    # the factored closed forms against the same products formed one
    # RatFunc factor at a time, compared as the JSON the commands write
    F = GenericField(p, d)
    for n in range(4):
        for la in enumerate_all(p, d, n):
            b = la.composition()
            pairs = (
                (schur_element(p * d, la, F), multiplied_schur(la)),
                (schur_element_b(la, b, F), multiplied_schur_b(la)),
                (f_lambda_closed(la, b, F), multiplied_f(la)),
                (g_lambda(la, b, F), multiplied_g(la)),
            )
            for kind, (closed, multiplied) in zip("s b f g".split(), pairs):
                if scalar_to_json(closed) != reference_json(multiplied):
                    pytest.fail(f"{kind} differs at {la!r}")


# ---------------------------------------------------------------------------
# trace-form consistency: sum of chi/s over all shapes


def spanning_words(r, n):
    yield [], "one"
    for i in range(1, n):
        yield [("T", i)], "zero"
    for a in range(1, r):
        yield [("L", 1)] * a, "zero"


def check_trace_consistency(p, d, n, field):
    from cyclohecke.combin import enumerate_all

    shapes = enumerate_all(p, d, n)
    inverses = {la: field.one / schur_element(la.r, la, field) for la in shapes}
    for word, kind in spanning_words(p * d, n):
        total = field.zero
        for la in shapes:
            total = total + character(la, word, field) * inverses[la]
        expected = field.one if kind == "one" else field.zero
        assert total == expected, (p, d, n, word)


def test_trace_consistency_symbolic():
    for p, d, n in ((1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3), (3, 1, 2), (1, 2, 2)):
        check_trace_consistency(p, d, n, GenericField(p, d))


def test_trace_consistency_specialized():
    rng = Random(11)
    grid = ((4, 1, 4), (3, 1, 3), (2, 2, 2), (2, 2, 3), (2, 1, 4), (3, 1, 4), (2, 2, 4))
    for p, d, n in grid:
        check_trace_consistency(p, d, n, sample_point(p, d, n, rng))


# ---------------------------------------------------------------------------
# all scalars of one shape


def test_scalar_bundle_fields():
    F = generic_field(3, 1)
    la = mp(3, 1, ((1,), (1,), (1,)))
    b = (1, 1, 1)
    exps = _exponents(la, b)
    assert exps.orbit == 1 and exps.split == 3 and exps.root_size == 1
    # the Schur element of the block algebra H_{d,b} is 1 here, so the
    # trace identity f * s_b = s * Tr(v_b T_b) pins f to s times the trace
    f = f_lambda_closed(la, b, F)
    assert schur_element_b(la, b, F) == F.one
    assert f == schur_element(3, la, F) * closed_vb_trace(F, b, 1, 3, 3)
    g = g_lambda(la, b, F)
    e = 1 * 1 * 1 * (3 * 2 // 2)
    assert g ** 3 == F.eps_pow(e) * f


# ---------------------------------------------------------------------------
# internal invariants raise, also under python -O


def corrupt_first_pair(monkeypatch, corrupt):
    """Make the next call of _pair_factor, and only that one, return a wrong value.

    The wrapper corrupts what the memo returns, so the memo keeps only
    true values.
    """
    from cyclohecke import scalars

    calls = []

    def bad_pair(field, *key):
        calls.append(key)
        value = _pair_factor(field, *key)
        return corrupt(field, value) if len(calls) == 1 else value

    monkeypatch.setattr(scalars, "_pair_factor", bad_pair)


def test_laurent_check_trips_on_injected_pole(monkeypatch):
    corrupt_first_pair(monkeypatch, lambda field, value: value * (
        field.one + field.one / (field.q - field.one)))
    with pytest.raises(RuntimeError, match="internal: f must be a Laurent"):
        f_lambda_closed(mp(2, 1, ((1,), (1,))), (1, 1), GenericField(2, 1))


def test_laurent_check_on_factored_values():
    from cyclohecke.scalars import _check_laurent

    V = GenericField(2, 1)
    x = V.q - V.one
    _check_laurent(V, x * x / x, "f")
    with pytest.raises(RuntimeError, match="internal: g must be a Laurent"):
        _check_laurent(V, x / (x * x), "g")


def test_exponent_checks_trip_on_injected_fault(monkeypatch):
    from cyclohecke import scalars

    la = mp(2, 1, ((1,), (1,)))
    assert la.orbit_order() == (1, 2)
    real = scalars.comp_stats
    monkeypatch.setattr(scalars, "comp_stats",
                        lambda b: (real(b)[0], real(b)[1] + 1))
    with pytest.raises(RuntimeError, match="internal: q-exponent"):
        g_lambda(la, (1, 1), GenericField(2, 1))
    monkeypatch.setattr(scalars, "comp_stats",
                        lambda b: (real(b)[0] + 1, real(b)[1]))
    with pytest.raises(RuntimeError, match="internal: eps-exponent"):
        g_lambda(la, (1, 1), GenericField(2, 1))


def off_by_one_hook(monkeypatch):
    """Make the next pair factor, and only that one, one q-power off."""
    corrupt_first_pair(monkeypatch, lambda field, value: value * field.q)


def test_corrupted_factor_fails_every_identity(monkeypatch):
    # the checks below use pytest.fail, so they hold under python -O too
    la = mp(2, 1, ((1,), (1,)))
    off_by_one_hook(monkeypatch)
    if verify_factorization(la, (1, 1)) is not False:
        pytest.fail("factorization holds with a corrupted factor of f")
    off_by_one_hook(monkeypatch)
    with pytest.raises(AssertionError, match="factorization fails"):
        _criterion_factorization((2,), (1,), 2)
    F = generic_field(2, 1)
    for b in compositions(2, 2):
        for shape in enumerate_pdb(1, b):
            off_by_one_hook(monkeypatch)
            f = f_lambda_closed(shape, b, F)
            lhs = f * schur_element_b(shape, b, F)
            rhs = schur_element(2, shape, F) * closed_vb_trace(F, b, 1, 2, 2)
            if lhs == rhs:
                pytest.fail(f"trace identity holds with a corrupted f at {shape!r}")


# ---------------------------------------------------------------------------
# the pair-factor memo


def test_pair_memo_stays_within_its_bound():
    from cyclohecke.scalars import PAIR_CACHE_SIZE

    F = GenericField(2, 1)
    _pair_factor.cache_clear()
    # mu = (1,)*k gives the one box of la = (1,) the hook k
    keys = [(F, (1,), (1,) * k, 0, 1, 1) for k in range(1, PAIR_CACHE_SIZE + 21)]
    first = [_pair_factor(*key) for key in keys[:20]]
    for key in keys[20:]:
        _pair_factor(*key)
        assert _pair_factor.cache_info().currsize <= PAIR_CACHE_SIZE
    misses = _pair_factor.cache_info().misses
    for key, value in zip(keys[:20], first):
        again = _pair_factor(*key)
        assert again is not value and again == value
        assert scalar_to_json(again) == scalar_to_json(value)
    assert _pair_factor.cache_info().misses == misses + 20
    assert first[4] == F.q_power(5) - F.one


def snapshot(value):
    return value.unit, value.mono, dict(value.num), dict(value.den)


def test_memoized_pair_factors_are_never_changed(monkeypatch):
    from cyclohecke import scalars

    used = []

    def recording(field, *key):
        value = _pair_factor(field, *key)
        used.append((value, snapshot(value)))
        return value

    monkeypatch.setattr(scalars, "_pair_factor", recording)
    F = GenericField(3, 1)
    values = []
    for la in enumerate_all(3, 1, 3):
        b = la.composition()
        values += [f_lambda_closed(la, b, F), schur_element(3, la, F),
                   schur_element_b(la, b, F), g_lambda(la, b, F)]
    assert len(used) > 100
    for value, before in used:
        assert snapshot(value) == before
    for value in values:
        scalar_to_json(value)
    for value, before in used:
        scalar_to_json(value)
        assert snapshot(value) == before


@pytest.mark.parametrize("p, d, n", [(3, 2, 2), (2, 2, 3)])
def test_cold_and_warm_pair_memo_agree(p, d, n):
    def scalars_of(la, field):
        b = la.composition()
        values = (schur_element(p * d, la, field), schur_element_b(la, b, field),
                  f_lambda_closed(la, b, field), g_lambda(la, b, field))
        return [scalar_to_json(v) for v in values]

    shapes = enumerate_all(p, d, n)
    for field in (GenericField(p, d), sample_point(p, d, n, Random(7))):
        cold = []
        for la in shapes:
            _pair_factor.cache_clear()
            cold.append(scalars_of(la, field))
        warm = [scalars_of(la, field) for la in shapes]
        assert _pair_factor.cache_info().hits > 0
        assert warm == cold
