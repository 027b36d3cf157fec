import json
from random import Random

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclohecke import seminormal
from cyclohecke.cli import _random_table, main, scalar_to_json
from cyclohecke.combin import enumerate_all, enumerate_pdb
from cyclohecke.elements import (
    verify_changing,
    verify_comparison,
    verify_pleftmult,
)
from cyclohecke.exactnum import SpecPoint
from cyclohecke.scalars import verify_factorization

from helpers import reference_json, scalar_from_json


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args, exit_code=0):
    result = runner.invoke(main, args)
    assert result.exit_code == exit_code, result.output
    return json.loads(result.output)


def write_tables(runner, tmp_path, args, name="tables.json"):
    path = tmp_path / name
    result = runner.invoke(main, ["semisimple-tables", *args,
                                  "--out", str(path)])
    assert result.exit_code == 0, result.output
    return str(path)


def write_klesh(tmp_path, p, d, n, name="klesh.json"):
    path = tmp_path / name
    labels = [la.to_json() for la in enumerate_all(p, d, n)]
    path.write_text(json.dumps({"labels": labels}))
    return str(path)


# ---------------------------------------------------------------------------
# enumeration and tables


def test_enumerate_by_n(runner):
    data = run_json(runner, ["enumerate", "--p", "2", "--d", "1", "--n", "2"])
    assert data["count"] == 5
    fixed = [s for s in data["shapes"] if s["split"] == 2]
    assert fixed == [{"comps": [[1], [1]], "b": [1, 1], "orbit": 1,
                      "split": 2, "dim_std": 2, "dim_summand": 1}]
    empty = run_json(runner, ["enumerate", "--p", "2", "--d", "1", "--n", "0"])
    assert empty["shapes"] == [{"comps": [[], []], "b": [0, 0], "orbit": 1,
                                "split": 1, "dim_std": 1, "dim_summand": 1}]


@pytest.mark.parametrize("args", [
    ["enumerate", "--p", "0", "--d", "1", "--n", "2"],
    ["enumerate", "--p", "-1", "--d", "1", "--n", "2"],
    ["enumerate", "--p", "1", "--d", "0", "--n", "2"],
    ["semisimple-tables", "--s", "0", "--m", "1"],
])
def test_nonpositive_sizes_rejected(runner, args):
    data = run_json(runner, args, exit_code=2)
    assert data["error"]["kind"] == "validation"


@pytest.mark.parametrize("args", [
    ["enumerate", "--p", "2", "--d", "1", "--n", "-1"],
    ["enumerate", "--p", "1", "--d", "1", "--b", "[]"],
    ["seminormal-check", "--p", "2", "--d", "1", "--n", "-1"],
    ["verify", "factorization", "--p", "2", "--d", "1", "--n", "-1"],
    ["verify", "changing", "--b", "[]"],
    ["verify", "pleftmult", "--b", "[]"],
    ["verify", "comparison", "--b", "[]"],
    ["verify", "trace-vbtb", "--b", "[]"],
    ["verify", "pleftmult", "--b", "[1]", "--n", "-1"],
    ["scalar", "f", "--p", "2", "--d", "1", "--lambda", "[[1],[1]]",
     "--b", "[]"],
    ["semisimple-tables", "--s", "1", "--n", "-1"],
], ids=lambda args: " ".join(args))
def test_sizes_that_enumerate_nothing_rejected(runner, args):
    # a negative n or an empty composition is refused where the flags
    # are read; n = 0, one empty shape, stays valid
    data = run_json(runner, args, exit_code=2)
    assert data["error"]["kind"] == "validation"
    assert "nonnegative" in data["error"]["message"] \
        or "at least one part" in data["error"]["message"]


@pytest.mark.parametrize("args", [
    ["seminormal-check", "--p", "2", "--d", "1", "--n", "0"],
    ["verify", "factorization", "--p", "2", "--d", "1", "--n", "0"],
    ["semisimple-tables", "--s", "1", "--n", "0"],
], ids=lambda args: " ".join(args))
def test_size_zero_is_valid(runner, args):
    assert run_json(runner, args)


def test_enumerate_by_b(runner):
    data = run_json(runner, ["enumerate", "--p", "2", "--d", "2",
                             "--b", "[2,1]"])
    assert data["n"] == 3
    assert data["count"] == len(enumerate_pdb(2, (2, 1)))
    assert all(s["b"] == [2, 1] for s in data["shapes"])


def test_enumerate_flag_conflicts(runner):
    result = runner.invoke(main, ["enumerate", "--p", "2", "--d", "1",
                                  "--n", "3", "--b", "[2,2]"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["enumerate", "--p", "2", "--d", "1"])
    assert result.exit_code == 2


def test_semisimple_tables_single(runner):
    data = run_json(runner, ["semisimple-tables", "--s", "1", "--m", "2"])
    (table,) = data["tables"]
    assert table["s"] == 1 and table["m"] == 2
    assert len(table["rows"]) == 2
    assert table["rows"] == table["cols"]
    diag = sorted(e[:2] for e in table["entries"])
    assert diag == [[0, 0], [1, 1]]
    assert all(e[2] == 1 for e in table["entries"])


def test_semisimple_tables_battery(runner):
    data = run_json(runner, ["semisimple-tables", "--s", "2", "--n", "2"])
    assert [t["m"] for t in data["tables"]] == [0, 1, 2]
    result = runner.invoke(main, ["semisimple-tables", "--s", "1"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["semisimple-tables", "--s", "1",
                                  "--m", "1", "--n", "2"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# verification commands


def test_verify_pleftmult_example(runner):
    data = run_json(runner, ["verify", "pleftmult", "--p", "2", "--d", "1",
                             "--n", "3", "--b", "[2,1]"])
    assert data["passed"] is True


def test_verify_changing_all_pivots(runner):
    data = run_json(runner, ["verify", "changing", "--b", "[1,2]",
                             "--d", "1"])
    assert data["pivots"] == {"1": True, "2": True}
    assert data["passed"] is True


def test_verify_changing_builds_each_points_units_once(runner):
    # 20 points are more than the rep memo holds: with the pivots
    # outermost each pivot rebuilt every point's units
    memo = seminormal._cached_units
    memo.cache_clear()
    try:
        data = run_json(runner, ["verify", "changing", "--b", "[2,1]",
                                 "--d", "1", "--mode", "random",
                                 "--trials", "20", "--seed", "1"])
        assert data["passed"] is True and len(data["fields"]) == 20
        assert memo.cache_info().misses == 20
    finally:
        memo.cache_clear()


def test_verify_comparison(runner):
    data = run_json(runner, ["verify", "comparison", "--b", "[1,1]",
                             "--d", "1", "--mode", "random", "--seed", "3"])
    assert data["passed"] is True


def test_verify_trace_vbtb(runner):
    data = run_json(runner, ["verify", "trace-vbtb", "--b", "[2,1]",
                             "--d", "1"])
    assert data["passed"] is True
    assert all(rec["kind"] == "cycrat" for rec in data["values"])
    data = run_json(runner, ["verify", "trace-vbtb", "--b", "[2,1]",
                             "--d", "1", "--mode", "symbolic"])
    assert data["passed"] is True
    assert data["values"] == [data["values"][0]]
    assert data["values"][0]["kind"] == "ratfunc"


def test_verify_factorization(runner):
    data = run_json(runner, ["verify", "factorization", "--p", "2",
                             "--d", "1", "--n", "2"])
    assert data["passed"] is True and data["shapes"] == 5
    data = run_json(runner, ["verify", "factorization", "--p", "2",
                             "--d", "1", "--lambda", "[[1],[1]]"])
    assert data["passed"] is True


def test_verify_factorization_three_parameters(runner):
    # 255 shapes over Q(eps_3)(q, Q_1, Q_2, Q_3), proved on the factors
    data = run_json(runner, ["verify", "factorization", "--p", "3",
                             "--d", "3", "--n", "3"])
    assert data["passed"] is True and data["shapes"] == 255


_REPLAYS = {
    "changing": lambda b, points: {
        str(j): verify_changing(b, 1, j, points)
        for j in range(1, len(b) + 1)},
    "pleftmult": lambda b, points: verify_pleftmult(b, 1, points),
    "comparison": lambda b, points: verify_comparison(b, 1, points),
    "factorization": lambda b, points: [
        la.to_json() for la in enumerate_all(len(b), 1, sum(b))
        if not verify_factorization(la, la.composition(), points)],
}


@pytest.mark.parametrize("op", sorted(_REPLAYS))
@pytest.mark.parametrize("trials, seed", [(1, 0), (2, 7)])
def test_random_verdicts_log_their_points(runner, op, trials, seed):
    # the logged points are the witnesses: replaying the verifier on
    # them gives the logged verdict
    b = (2, 1)
    args = ["--mode", "random", "--trials", str(trials), "--seed", str(seed)]
    if op == "factorization":
        args += ["--p", "2", "--d", "1", "--n", "3"]
    else:
        args += ["--b", "[2,1]", "--d", "1"]
    data = run_json(runner, ["verify", op, *args])
    points = [SpecPoint.from_json(rec) for rec in data["fields"]]
    assert len(points) == trials
    assert [pt.to_json() for pt in points] == data["fields"]
    assert len(set(points)) == trials
    verdict = _REPLAYS[op](b, points)
    key = {"changing": "pivots", "factorization": "failures"}.get(op, "passed")
    assert verdict == data[key]
    assert data["passed"] is True


def test_verify_flag_consistency(runner):
    result = runner.invoke(main, ["verify", "pleftmult", "--b", "[2,1]",
                                  "--d", "1", "--p", "3"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify", "changing", "--b", "[2,1]",
                                  "--d", "1", "--n", "4"])
    assert result.exit_code == 2


def test_seminormal_check(runner):
    data = run_json(runner, ["seminormal-check", "--p", "2", "--d", "1",
                             "--n", "2"])
    assert data["passed"] is True
    assert data["shapes"] == 5
    assert data["fields"] == [{"generic": {"p": 2, "d": 1}}]
    data = run_json(runner, ["seminormal-check", "--p", "3", "--d", "1",
                             "--n", "3", "--lambda", "[[1],[1],[1]]",
                             "--mode", "random", "--seed", "2"])
    assert data["passed"] is True
    assert len(data["fields"]) == 3
    assert all("q" in f for f in data["fields"])


@pytest.mark.parametrize("d, n", [(1, 2), (2, 2), (1, 3)])
def test_seminormal_check_p1_symbolic(runner, d, n):
    data = run_json(runner, ["seminormal-check", "--p", "1", "--d", str(d),
                             "--n", str(n), "--mode", "symbolic"])
    assert data["passed"] is True
    assert data["fields"] == [{"generic": {"p": 1, "d": d}}]


@pytest.mark.parametrize("command", [
    ["seminormal-check", "--p", "1", "--d", "2", "--n", "3"],
    ["verify", "changing", "--b", "[3]", "--d", "2"],
])
def test_auto_mode_p1_is_symbolic(runner, command):
    # past the auto size limit, but no point can be sampled at p = 1
    data = run_json(runner, command)
    assert data["passed"] is True


_TRIALS_COMMANDS = [
    ["seminormal-check", "--p", "2", "--d", "1", "--n", "2"],
    ["verify", "changing", "--b", "[1,1]", "--d", "1"],
    ["verify", "pleftmult", "--b", "[1,1]", "--d", "1"],
    ["verify", "comparison", "--b", "[1,1]", "--d", "1"],
    ["verify", "trace-vbtb", "--b", "[1,1]", "--d", "1"],
    ["verify", "factorization", "--p", "2", "--d", "1", "--n", "2"],
    ["scalar", "schur", "--p", "2", "--d", "1", "--lambda", "[[1],[1]]"],
    ["scalar", "f", "--p", "2", "--d", "1", "--lambda", "[[1],[1]]"],
    ["scalar", "g", "--p", "2", "--d", "1", "--lambda", "[[1],[1]]"],
]


@pytest.mark.parametrize("trials", [
    ["--mode", "random", "--trials", "0"],
    ["--mode", "random", "--trials", "-1"],
    ["--trials", "-1"],
], ids=["random-0", "random-minus-1", "default-minus-1"])
@pytest.mark.parametrize("command", _TRIALS_COMMANDS,
                         ids=lambda c: " ".join(w for w in c[:2]
                                                if not w.startswith("-")))
def test_trials_below_one_rejected(runner, command, trials):
    data = run_json(runner, command + trials, exit_code=2)
    assert data["error"]["kind"] == "validation"
    assert "trials" in data["error"]["message"]


# ---------------------------------------------------------------------------
# scalars


def test_scalar_schur_round_trip(runner):
    data = run_json(runner, ["scalar", "schur", "--p", "2", "--d", "1",
                             "--lambda", "[[1],[1]]"])
    (rec,) = data["values"]
    assert rec["kind"] == "ratfunc"
    assert reference_json(scalar_from_json(rec)) == rec


def test_scalar_g_random_round_trip(runner):
    data = run_json(runner, ["scalar", "g", "--p", "2", "--d", "1",
                             "--lambda", "[[2],[1]]", "--mode", "random",
                             "--seed", "9"])
    assert len(data["values"]) == 3
    for rec in data["values"]:
        assert rec["kind"] == "cycrat"
        assert scalar_to_json(scalar_from_json(rec)) == rec


def test_scalar_f_with_explicit_b(runner):
    base = run_json(runner, ["scalar", "f", "--p", "2", "--d", "1",
                             "--lambda", "[[2],[1]]"])
    explicit = run_json(runner, ["scalar", "f", "--p", "2", "--d", "1",
                                 "--lambda", "[[2],[1]]", "--b", "[2,1]"])
    assert base["values"] == explicit["values"]


def test_scalar_p1_symbolic(runner):
    data = run_json(runner, ["scalar", "schur", "--p", "1", "--d", "2",
                             "--lambda", "[[1],[1]]"])
    assert data["values"][0]["kind"] == "ratfunc"


def test_scalar_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        scalar_from_json({"kind": "decimal", "value": "1.5"})


# ---------------------------------------------------------------------------
# splittable


def test_splittable_echoes_block_number(runner, tmp_path):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    data = run_json(runner, ["splittable", "--p", "2", "--d", "1",
                             "--lambda", "[[2],[1]]", "--mu", "[[1,1],[1]]",
                             "--tables", tables])
    assert data["split"] == 1
    assert data["values"] == [[0, 1]]
    data = run_json(runner, ["splittable", "--p", "2", "--d", "1",
                             "--lambda", "[[2],[1]]", "--mu", "[[2],[1]]",
                             "--tables", tables])
    assert data["values"] == [[1, 1]]


def test_splittable_diagonal_delta(runner, tmp_path):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    data = run_json(runner, ["splittable", "--p", "2", "--d", "1",
                             "--lambda", "[[1],[1]]", "--mu", "[[1],[1]]",
                             "--tables", tables])
    assert data["split"] == 2
    assert data["values"] == [[0, 1], [1, 1]]
    assert data["provenance"] == "formula"


def test_splittable_char_reduction(runner, tmp_path):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    data = run_json(runner, ["splittable", "--p", "2", "--d", "1",
                             "--lambda", "[[1],[1]]", "--mu", "[[1],[1]]",
                             "--tables", tables, "--char", "2"])
    assert data["char"] == 2
    assert data["residues"] == [0, 1]


def test_splittable_exit_codes(runner, tmp_path):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    result = runner.invoke(main, ["splittable", "--p", "2", "--d", "1",
                                  "--lambda", "[[1],[1]]",
                                  "--mu", "[[2],[]]", "--tables", tables])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["kind"] == "validation"
    only3 = write_tables(runner, tmp_path, ["--s", "1", "--m", "3"], "t3.json")
    result = runner.invoke(main, ["splittable", "--p", "2", "--d", "1",
                                  "--lambda", "[[1],[1]]",
                                  "--mu", "[[1],[1]]", "--tables", only3])
    assert result.exit_code == 4
    assert json.loads(result.output)["error"]["kind"] == "input-data"
    result = runner.invoke(main, ["splittable", "--p", "2", "--d", "1",
                                  "--lambda", "[[1],[1]]",
                                  "--mu", "[[1],[1]]",
                                  "--tables", str(tmp_path / "absent.json")])
    assert result.exit_code == 2


def test_splittable_rejects_boolean_table_entry(runner, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"tables": [
        {"s": 1, "m": 1, "rows": [[[1]]], "cols": [[[1]]],
         "entries": [[0, 0, True]]},
    ]}))
    result = runner.invoke(main, ["splittable", "--p", "2", "--d", "1",
                                  "--lambda", "[[1],[1]]",
                                  "--mu", "[[1],[1]]", "--tables", str(path)])
    assert result.exit_code == 4
    error = json.loads(result.output)["error"]
    assert error["kind"] == "input-data"
    assert "True" in error["message"]


@pytest.mark.parametrize("command", ["splittable", "assemble"])
def test_non_integer_eps_power_exits_4(runner, tmp_path, command):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    with open(tables) as fh:
        data = json.load(fh)
    data["tables"][1]["params"] = {"eps_power": 1.5}
    path = tmp_path / "eps.json"
    path.write_text(json.dumps(data))
    args = ["--p", "2", "--d", "1", "--tables", str(path)]
    if command == "splittable":
        args += ["--lambda", "[[1],[1]]", "--mu", "[[1],[1]]"]
    else:
        args += ["--n", "2", "--klesh", write_klesh(tmp_path, 2, 1, 2)]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 4, result.output
    error = json.loads(result.output)["error"]
    assert error["kind"] == "input-data"
    assert "eps_power" in error["message"]


def test_splittable_rejects_boolean_table_label(runner, tmp_path):
    path = tmp_path / "bool_label.json"
    path.write_text(json.dumps({"tables": [
        {"s": 1, "m": 1, "rows": [[[True]]], "cols": [[[True]]],
         "entries": [[0, 0, 1]]},
    ]}))
    result = runner.invoke(main, ["splittable", "--p", "2", "--d", "1",
                                  "--lambda", "[[1],[1]]",
                                  "--mu", "[[1],[1]]", "--tables", str(path)])
    assert result.exit_code == 4
    error = json.loads(result.output)["error"]
    assert error["kind"] == "input-data"
    assert "True" in error["message"]


# ---------------------------------------------------------------------------
# assembly and reduction


def test_assemble_semisimple_identity(runner, tmp_path):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "3"])
    klesh = write_klesh(tmp_path, 2, 1, 3)
    data = run_json(runner, ["assemble", "--p", "2", "--d", "1", "--n", "3",
                             "--tables", tables, "--klesh", klesh])
    assert data["report"]["identity"] is True
    assert data["report"]["unitriangular"] is True
    assert data["report"]["rows"] == data["report"]["cols"] == 5


def test_assemble_random_mode_logs_point(runner, tmp_path):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    klesh = write_klesh(tmp_path, 2, 1, 2)
    data = run_json(runner, ["assemble", "--p", "2", "--d", "1", "--n", "2",
                             "--tables", tables, "--klesh", klesh,
                             "--mode", "random", "--seed", "4"])
    assert data["report"]["identity"] is True
    assert data["field"]["p"] == 2 and "q" in data["field"]


def test_reduce_mod_identity(runner, tmp_path):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    klesh = write_klesh(tmp_path, 2, 1, 2)
    mat = tmp_path / "mat.json"
    run_json(runner, ["assemble", "--p", "2", "--d", "1", "--n", "2",
                      "--tables", tables, "--klesh", klesh,
                      "--out", str(mat)])
    before = json.loads(mat.read_text())
    data = run_json(runner, ["reduce-mod", "--matrix", str(mat),
                             "--char", "3"])
    assert data["entries"] == before["entries"]
    assert data["char"] == 3
    assert data["report"]["char"] == 3


def assembled(runner, tmp_path, **changes):
    """The assemble output at (p, d, n) = (2, 1, 2) on semisimple tables,
    with the given keys replaced, written to a file."""
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    klesh = write_klesh(tmp_path, 2, 1, 2)
    data = run_json(runner, ["assemble", "--p", "2", "--d", "1", "--n", "2",
                             "--tables", tables, "--klesh", klesh])
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({**data, **changes}))
    return str(mat)


def test_reduce_mod_residues(runner, tmp_path):
    relation = {"terms": [[1, "d0.1"]], "rhs": 7}
    mat = assembled(runner, tmp_path,
                    entries=[[0, 0, 5], [1, 0, 4], [1, 1, 1]],
                    unknowns=[{"relations": [relation]}])
    data = run_json(runner, ["reduce-mod", "--matrix", mat, "--char", "2"])
    # a zero residue leaves the sparse entry list, as in assemble --char
    assert data["entries"] == [[0, 0, 1], [1, 1, 1]]
    assert data["unknowns"][0]["relations"][0]["rhs"] == 1
    assert data["report"]["identity"] is False


def test_reduce_mod_keeps_unknowns(runner, tmp_path):
    mat = assembled(runner, tmp_path,
                    entries=[[0, 0, 1], [1, 0, {"unknown": "u0.1"}]])
    data = run_json(runner, ["reduce-mod", "--matrix", mat, "--char", "5"])
    assert data["entries"][1][2] == {"unknown": "u0.1"}


def test_reduce_mod_rejects_non_integral(runner, tmp_path):
    mat = assembled(runner, tmp_path, entries=[[0, 0, "1/2"]])
    result = runner.invoke(main, ["reduce-mod", "--matrix", mat,
                                  "--char", "2"])
    assert result.exit_code == 4
    assert json.loads(result.output)["error"]["kind"] == "input-data"


@pytest.mark.parametrize("entry", [[9, 0, 1], [0, -1, 1]])
def test_reduce_mod_rejects_entry_outside_the_matrix(runner, tmp_path, entry):
    mat = assembled(runner, tmp_path, entries=[entry])
    result = runner.invoke(main, ["reduce-mod", "--matrix", mat,
                                  "--char", "2"])
    assert result.exit_code == 4, result.output
    error = json.loads(result.output)["error"]
    assert error["kind"] == "input-data" and "out of range" in error["message"]


@pytest.mark.parametrize("key", ["entries", "unknowns", "report", "char"])
def test_reduce_mod_needs_assemble_keys(runner, tmp_path, key):
    mat = tmp_path / "mat.json"
    data = json.loads(open(assembled(runner, tmp_path)).read())
    del data[key]
    mat.write_text(json.dumps(data))
    result = runner.invoke(main, ["reduce-mod", "--matrix", str(mat),
                                  "--char", "2"])
    assert result.exit_code == 2, result.output
    error = json.loads(result.output)["error"]
    assert error["kind"] == "validation" and key in error["message"]


@pytest.mark.parametrize("mode", ["symbolic", "random"])
@pytest.mark.parametrize("char", ["2", "3"])
def test_reduce_mod_of_assemble_is_assemble_char(runner, tmp_path, char,
                                                 mode):
    # one reduction: reduce-mod of the characteristic-0 matrix prints byte
    # for byte what assemble --char prints, zero residues left out
    klesh = write_klesh(tmp_path, 2, 1, 3)
    zero_residues = 0
    for seed in range(4):
        rng = Random(seed)
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps(
            [_random_table(rng, 1, m).to_json() for m in range(4)]))
        args = ["assemble", "--p", "2", "--d", "1", "--n", "3",
                "--tables", str(tables), "--klesh", klesh,
                "--mode", mode, "--seed", str(seed)]
        mat = tmp_path / "mat.json"
        data = run_json(runner, args)
        mat.write_text(json.dumps(data, indent=2))
        zero_residues += sum(isinstance(v, int) and v % int(char) == 0
                             for _, _, v in data["entries"])
        reduced = runner.invoke(main, ["reduce-mod", "--matrix", str(mat),
                                       "--char", char])
        direct = runner.invoke(main, [*args, "--char", char])
        assert (reduced.exit_code, direct.exit_code) == (0, 0)
        assert reduced.output == direct.output
    assert zero_residues


@pytest.mark.parametrize("m", [2.0, "2"])
@pytest.mark.parametrize("command", ["splittable", "assemble"])
def test_non_integer_table_size_exits_4(runner, tmp_path, command, m):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    with open(tables) as fh:
        data = json.load(fh)
    data["tables"][1]["m"] = m
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    args = ["--p", "2", "--d", "1", "--tables", str(path)]
    if command == "splittable":
        args += ["--lambda", "[[1],[1]]", "--mu", "[[1],[1]]"]
    else:
        args += ["--n", "2", "--klesh", write_klesh(tmp_path, 2, 1, 2)]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 4, result.output
    error = json.loads(result.output)["error"]
    assert error["kind"] == "input-data"
    assert "m must be an integer" in error["message"]


def test_reduce_mod_rejects_composite_char(runner, tmp_path):
    result = runner.invoke(main, ["reduce-mod", "--matrix",
                                  assembled(runner, tmp_path), "--char", "4"])
    assert result.exit_code == 2


@pytest.mark.parametrize("char", ["4", "9", "1", "0", "-3"])
@pytest.mark.parametrize("command", ["splittable", "assemble"])
def test_char_must_be_prime(runner, tmp_path, command, char):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    args = ["--p", "2", "--d", "1", "--tables", tables]
    if command == "splittable":
        args += ["--lambda", "[[1],[1]]", "--mu", "[[1],[1]]"]
    else:
        args += ["--n", "2", "--klesh", write_klesh(tmp_path, 2, 1, 2)]
    result = runner.invoke(main, [command, *args, "--char", char])
    assert result.exit_code == 2, result.output
    assert json.loads(result.output) == {"error": {
        "kind": "validation",
        "message": f"characteristic must be prime, got {char}"}}
    data = run_json(runner, [command, *args, "--char", "3"])
    assert data["char"] == 3


# ---------------------------------------------------------------------------
# fixtures and determinism


def test_fixtures_unknown_suite(runner):
    result = runner.invoke(main, ["fixtures", "--suite", "nightly"])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["kind"] == "validation"


def test_fixtures_quick_passes(runner):
    data = run_json(runner, ["fixtures", "--suite", "quick"])
    assert data["passed"] is True
    assert data["results"]
    assert all(r["passed"] is True for r in data["results"]), data["results"]


def test_fixtures_records_typed_errors_per_criterion(runner, monkeypatch):
    from cyclohecke import cli
    from cyclohecke.decomp import InputDataError
    from cyclohecke.exactnum import PoleError

    def raises(exc):
        def check():
            raise exc
        return check

    divisibility = [c for c in cli.quick_criteria()
                    if c[0] == "9 divisibility"]
    monkeypatch.setattr(cli, "quick_criteria", lambda: [
        ("1 pole", raises(PoleError("pole at q = 1")), None),
        ("2 tables", raises(InputDataError("bad table")), None),
        *divisibility,
    ])
    data = run_json(runner, ["fixtures", "--suite", "quick"], exit_code=3)
    assert data["passed"] is False
    results = data["results"]
    assert [r["passed"] for r in results] == [False, False, True]
    assert results[0]["detail"] == "PoleError: pole at q = 1"
    assert results[1]["detail"] == "InputDataError: bad table"
    assert results[2]["criterion"] == "9 divisibility"


def test_fixtures_fails_a_criterion_over_its_budget(runner, monkeypatch):
    # the same runner as the pytest gate: a passing check over its time
    # budget fails, the budget named; one without a budget is not timed out
    from cyclohecke import cli

    divisibility = [c for c in cli.quick_criteria()
                    if c[0] == "9 divisibility"]
    monkeypatch.setattr(cli, "quick_criteria", lambda: [
        ("1 slow", lambda: "checked", 0),
        *divisibility,
    ])
    data = run_json(runner, ["fixtures", "--suite", "quick"], exit_code=3)
    assert data["passed"] is False
    slow, plain = data["results"]
    assert slow["passed"] is False
    assert slow["detail"].startswith("took ")
    assert slow["detail"].endswith(", budget 0s: checked")
    assert plain["passed"] is True and plain["detail"] == "779 shapes"


def test_verify_factorization_rejects_a_size_mismatch(runner):
    data = run_json(runner, ["verify", "factorization", "--p", "2",
                             "--d", "1", "--lambda", "[[1],[1]]",
                             "--n", "3"], exit_code=2)
    assert data["error"] == {"kind": "validation",
                             "message": "lambda has size 2, expected 3"}
    data = run_json(runner, ["verify", "factorization", "--p", "2",
                             "--d", "1", "--lambda", "[[1],[1]]",
                             "--n", "2"])
    assert data["passed"] is True and data["shapes"] == 1


def test_failed_verdict_exits_3(runner, monkeypatch):
    # the first pair factor one q-power off: f no longer matches its
    # factors in g, so g^split = eps^E f fails for that shape; the memo
    # behind _pair_factor keeps the true value
    from cyclohecke import scalars

    real, calls = scalars._pair_factor, []

    def bad_pair(field, *key):
        calls.append(key)
        value = real(field, *key)
        return value * field.q if len(calls) == 1 else value

    monkeypatch.setattr(scalars, "_pair_factor", bad_pair)
    data = run_json(runner, ["verify", "factorization", "--p", "2",
                             "--d", "1", "--n", "2"], exit_code=3)
    assert data["passed"] is False
    assert data["failures"]


def test_comparison_checks_the_identity_against_the_closed_trace(
        runner, monkeypatch):
    # a closed form one q-power off fails the identity monomial's row, in
    # the verifier and in the command
    from cyclohecke import elements

    real = elements.vbtb_trace_closed
    monkeypatch.setattr(elements, "vbtb_trace_closed",
                        lambda b, field: real(b, field) * field.q)
    assert not verify_comparison((1, 1), 1)
    data = run_json(runner, ["verify", "comparison", "--b", "[1,1]",
                             "--d", "1"], exit_code=3)
    assert data["passed"] is False


def test_internal_invariant_exits_3_without_traceback(runner, monkeypatch):
    # one more box-count in the q-exponent of g breaks its integrality
    # check in scalars._exponents
    from cyclohecke import scalars

    real = scalars.comp_stats
    monkeypatch.setattr(scalars, "comp_stats",
                        lambda b: (real(b)[0], real(b)[1] + 1))
    result = runner.invoke(main, ["scalar", "g", "--p", "2", "--d", "1",
                                  "--lambda", "[[1],[1]]"])
    assert result.exit_code == 3, result.output
    assert "Traceback" not in result.output
    assert json.loads(result.output) == {"error": {
        "kind": "internal",
        "message": "internal: q-exponent of g must be an integer"}}


@pytest.mark.parametrize("error", [KeyError("u0"), TypeError("u0")])
def test_type_and_key_errors_exit_2_only_while_reading(runner, tmp_path,
                                                        monkeypatch, error):
    from cyclohecke import cli

    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "3"])
    klesh = write_klesh(tmp_path, 2, 1, 3)
    no_s = tmp_path / "no_s.json"
    no_s.write_text(json.dumps({"m": 1, "rows": [], "cols": [],
                                "entries": []}))
    no_labels = tmp_path / "no_labels.json"
    no_labels.write_text(json.dumps({"label": []}))
    assemble = ["assemble", "--p", "2", "--d", "1", "--n", "3"]
    for args, message in [
        (["scalar", "schur", "--p", "2", "--d", "1", "--lambda", "[1,2]"],
         "'int' object is not iterable"),
        (assemble + ["--tables", str(no_s), "--klesh", klesh], "'s'"),
        (assemble + ["--tables", tables, "--klesh", str(no_labels)],
         "'labels'"),
    ]:
        assert run_json(runner, args, exit_code=2) == {"error": {
            "kind": "validation", "message": message}}

    def broken(*args, **kwargs):
        raise error

    # the same errors from a computation are bugs, not bad input
    monkeypatch.setattr(cli, "assemble_matrix", broken)
    data = run_json(runner, assemble + ["--tables", tables,
                                        "--klesh", klesh], exit_code=3)
    assert data == {"error": {"kind": "internal", "message": str(error)}}


@pytest.mark.parametrize("criterion, checker, points_of", [
    ("_criterion_elements", "check_identities",
     lambda p, d, n, table, points: points),
    ("_criterion_scalars", "flam_eigen_oracle", lambda b, pt: [pt]),
], ids=["criterion-3", "criterion-5"])
def test_sampled_criteria_use_three_distinct_points(monkeypatch, criterion,
                                                    checker, points_of):
    from cyclohecke import cli

    seen = {}
    real = getattr(cli, checker)

    def record(*args, **kwargs):
        for pt in points_of(*args, **kwargs):
            seen.setdefault((pt.p, pt.d), set()).add(pt)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, checker, record)
    getattr(cli, criterion)((2, 3), (1, 2), 2)
    assert sorted(seen) == [(2, 1), (2, 2), (3, 1), (3, 2)]
    assert all(len(points) == 3 for points in seen.values())


def test_determinism_same_seed(runner):
    args = ["scalar", "g", "--p", "2", "--d", "1", "--lambda", "[[2],[1]]",
            "--mode", "random", "--seed", "11"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output
    third = runner.invoke(main, args[:-1] + ["12"])
    assert third.output != first.output


def test_determinism_verify(runner):
    args = ["verify", "pleftmult", "--b", "[1,2]", "--d", "2",
            "--mode", "random", "--seed", "7"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def test_out_flag_writes_file(runner, tmp_path):
    path = tmp_path / "enum.json"
    result = runner.invoke(main, ["enumerate", "--p", "2", "--d", "1",
                                  "--n", "2", "--out", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"written": str(path)}
    assert json.loads(path.read_text())["count"] == 5


def test_klesh_labels_validated(runner, tmp_path):
    tables = write_tables(runner, tmp_path, ["--s", "1", "--n", "2"])
    klesh = tmp_path / "klesh.json"
    klesh.write_text(json.dumps({"labels": [[[2], []]]}))
    result = runner.invoke(main, ["assemble", "--p", "2", "--d", "1",
                                  "--n", "2", "--tables", tables,
                                  "--klesh", str(klesh)])
    assert result.exit_code == 4
    assert json.loads(result.output)["error"]["kind"] == "input-data"


# ---------------------------------------------------------------------------
# malformed flags


@pytest.mark.parametrize("args", [
    ["enumerate", "--p", "2", "--d", "1", "--b", "[2.7,1]"],
    ["enumerate", "--p", "2", "--d", "1", "--b", "[true,1]"],
    ["enumerate", "--p", "2", "--d", "1", "--b", '["3",0]'],
    ["scalar", "schur", "--p", "2", "--d", "1", "--lambda", "[[1.9],[1]]"],
    ["scalar", "schur", "--p", "2", "--d", "1", "--lambda", "[[2],[true]]"],
    ["verify", "pleftmult", "--b", "[1e400]"],
])
def test_non_integer_parts_rejected(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["error"]["kind"] == "validation"


# small ints keep the valid inputs cheap; 1e400 reads back as infinity
_JSON_LEAVES = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([2.5, 1e400, float("nan")]),
    st.booleans(),
    st.sampled_from(["", "3", "a"]),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=8)


@pytest.mark.parametrize("prefix", [
    ["enumerate", "--p", "2", "--d", "1", "--b"],
    ["scalar", "schur", "--p", "2", "--d", "1", "--lambda"],
])
@settings(max_examples=150, deadline=None)
@given(value=_JSON_VALUES)
@example(value=[1e400])
@example(value=[[1e400], []])
def test_malformed_flag_json_exits_cleanly(prefix, value):
    result = CliRunner().invoke(main, prefix + [json.dumps(value)])
    assert result.exit_code in (0, 2, 4), (value, result.output)
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), (value, result.exception)


@pytest.fixture(scope="module")
def assemble_inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("assemble")
    tables = write_tables(CliRunner(), tmp_path, ["--s", "1", "--n", "2"])
    return ["--tables", tables, "--klesh", write_klesh(tmp_path, 2, 1, 2)]


_SIZE_COMMANDS = [
    (["enumerate"], ("--p", "--d", "--n")),
    (["seminormal-check"], ("--p", "--d", "--n")),
    (["verify", "factorization"], ("--p", "--d", "--n")),
    (["assemble"], ("--p", "--d", "--n")),
    (["semisimple-tables"], ("--s", "--n")),
]


@pytest.mark.parametrize("command, flags", _SIZE_COMMANDS,
                         ids=[" ".join(c) for c, _ in _SIZE_COMMANDS])
@settings(max_examples=30, deadline=None)
# small sizes keep every valid draw cheap: verify factorization runs for
# minutes at (p, d, n) = (3, 3, 3)
@given(sizes=st.fixed_dictionaries({
    "--p": st.integers(-2, 3), "--d": st.integers(-2, 2),
    "--n": st.integers(-2, 3), "--s": st.integers(-2, 3)}))
def test_size_flags_exit_cleanly(assemble_inputs, command, flags, sizes):
    args = list(command) + [w for f in flags for w in (f, str(sizes[f]))]
    if command == ["assemble"]:
        args += assemble_inputs
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3, 4), (args, result.output)
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), (args, result.exception)
