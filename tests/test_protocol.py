"""The field protocol: a backend that defines only its written members
runs every consumer, and agrees with SpecPoint at the same point."""

from fractions import Fraction
from random import Random

import pytest

from cyclohecke.cli import _random_table
from cyclohecke.combin import compositions, enumerate_all, enumerate_pdb
from cyclohecke.decomp import InputDataError, assemble_matrix
from cyclohecke.elements import (
    flam_eigen_oracle,
    trace_vbtb,
    verify_changing,
    verify_comparison,
    verify_pleftmult,
)
from cyclohecke.exactnum import (
    CycRat,
    GenericField,
    SpecPoint,
    eps_pow,
    is_semisimple,
    is_separated,
)
from cyclohecke.scalars import (
    f_lambda_closed,
    g_lambda,
    schur_element,
    verify_factorization,
)
from cyclohecke.seminormal import build_rep, check_relations

from helpers import FractionPoint


def rational(value):
    """A value of either backend read as a rational; containers by item."""
    if isinstance(value, CycRat):
        return value.rational_value()
    if isinstance(value, (tuple, list)):
        return type(value)(rational(v) for v in value)
    if isinstance(value, dict):
        return {k: rational(v) for k, v in value.items()}
    return value


def outcome(fn, *args):
    try:
        return rational(fn(*args))
    except InputDataError as exc:
        return type(exc).__name__, str(exc)


def results(field, d: int, n: int) -> dict:
    out = {"separated": is_separated(field, n),
           "semisimple": is_semisimple(field, n)}
    for la in enumerate_all(2, d, n):
        rep = build_rep(la, field)
        out["relations", la] = check_relations(rep)
        out["L", la] = rational([rep.l_diagonal(k) for k in range(1, n + 1)])
        out["T", la] = rational([rep.t_rows(i) for i in range(1, n)])
        out["schur", la] = rational(schur_element(2 * d, la, field))
    pts = [field]
    for b in compositions(n, 2):
        out["changing", b] = [verify_changing(b, d, j, points=pts)
                              for j in (1, 2)]
        out["pleftmult", b] = verify_pleftmult(b, d, points=pts)
        out["comparison", b] = verify_comparison(b, d, points=pts)
        out["trace", b] = rational(tuple(trace_vbtb(b, field)))
        out["oracle", b] = rational(flam_eigen_oracle(b, field))
        for la in enumerate_pdb(d, b):
            out["factorization", la] = verify_factorization(la, b,
                                                            points=pts)
            out["f", la] = rational(f_lambda_closed(la, b, field))
            out["g", la] = rational(g_lambda(la, b, field))
    for seed in range(4):
        rng = Random(seed)
        tables = [_random_table(rng, d, m) for m in range(n + 1)]
        out["assemble", seed] = outcome(
            assemble_matrix, 2 * d, 2, n, tables, enumerate_all(2, d, n),
            field)
    return out


@pytest.mark.parametrize("d, n", [(1, 3), (2, 2)])
def test_fraction_backend_agrees_with_specpoint(d, n):
    q, Qs = 5, [3, 7][:d]
    got = results(FractionPoint(q, Qs), d, n)
    want = results(SpecPoint(2, 2, q, Qs), d, n)
    assert got == want
    assert got["separated"] and got["semisimple"]
    assert all(v == [] for k, v in got.items() if k[0] == "relations")
    # at least one assembly is a matrix, not a refusal of its tables
    assert any(isinstance(v, dict) for k, v in got.items()
               if k[0] == "assemble")


@pytest.mark.parametrize("q, Qs, n", [(1, [3], 2), (5, [3, -3], 2),
                                      (-1, [2], 3), (Fraction(1, 2), [4], 3)])
def test_fraction_backend_agrees_on_degenerate_points(q, Qs, n):
    # points that fail separation or semisimplicity fail both ways
    for check in (is_separated, is_semisimple):
        assert check(FractionPoint(q, Qs), n) \
            == check(SpecPoint(2, 2, q, Qs), n)


@pytest.mark.parametrize("field", [GenericField(4, 1), SpecPoint(4, 4, 5, [3])],
                         ids=["generic", "point"])
def test_backends_embed_a_lower_order_alike(field):
    # eps_2 = -1 is eps_4^2 in either backend; an order not dividing 4 is
    # refused by both
    assert field.scalar(eps_pow(2, 1)) == field.eps_pow(2)
    assert field.scalar(eps_pow(4, 1)) == field.eps_pow(1)
    with pytest.raises(ValueError, match="cannot embed order 3"):
        field.scalar(eps_pow(3, 1))
