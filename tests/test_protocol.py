"""The field protocol: a backend that defines only its written members
runs every consumer, and agrees with SpecPoint at the same point."""

from fractions import Fraction
from random import Random

import pytest

from cyclohecke.cli import _random_table
from cyclohecke.combin import (
    Multipartition,
    compositions,
    enumerate_all,
    enumerate_pdb,
)
from cyclohecke.decomp import (
    DecompTable,
    InputDataError,
    assemble_matrix,
    relations_oracle,
    split_by_formula,
    splittable_number,
)
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


def twist_solves(field) -> list:
    """The three twist solves of the split-2 pair ((2),(2)) over
    ((1,1),(1,1)) at the field's g values, on tables sending (2) to (1,1)
    with multiplicity d."""
    la = Multipartition(2, 1, [[2], [2]])
    mu = Multipartition(2, 1, [[1, 1], [1, 1]])
    g = (g_lambda(la, (2, 2), field), g_lambda(mu, (2, 2), field))
    out = []
    for d_val in (0, 1, 3, 5):
        labels = [[[2]], [[1, 1]]]
        entries = [[0, 0, 1], [1, 1, 1]] + ([[0, 1, d_val]] if d_val else [])
        tables = [DecompTable(1, 2, labels, labels, entries)]
        out += [outcome(lambda: split_by_formula(la, mu, tables, g[0] / g[1],
                                                 field).values),
                outcome(lambda: splittable_number(la, mu, 1, 2, tables,
                                                  g[0] / g[1], field)),
                outcome(lambda: relations_oracle(la, mu, tables, g,
                                                 field).values)]
    return out


def test_fraction_backend_runs_the_twist_solves():
    # the g ratio at (q, Q_1) = (5, 3) is 5: the solve of d = 5 is
    # (0, 25), those of d = 1 and d = 3 are negative and refused
    got = twist_solves(FractionPoint(5, [3]))
    assert got == twist_solves(SpecPoint(2, 2, 5, [3]))
    assert got[9:] == [(0, 25), 0, (0, 25)]
    assert got[3][0] == "InputDataError"


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
