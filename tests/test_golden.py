"""Pinned CLI runs: each entry of golden/corpus.json is an argv, its exit
code and the sha256 of its standard output, run in process.

Input files live in golden/inputs/, and an argv names them through the
placeholder {inputs}, resolved against that directory, so the corpus runs
from any working directory.  Re-record the digests of every listed argv
(after adding entries, or for an output change that CHANGES.md names with
its reason) with

    PYTHONPATH=src python tests/test_golden.py --record

which rewrites the digests and exit codes only, never an input file.
Run every entry as a process instead (``python -m cyclohecke.cli`` with
PYTHONPATH set to the checkout's src/) with

    PYTHONPATH=src python tests/test_golden.py --check

which prints the first mismatch and exits 1 if any entry differs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from cyclohecke.cli import main
from cyclohecke.combin import enumerate_all

from test_decomp import unknown_pair_tables

CORPUS = Path(__file__).parent / "golden" / "corpus.json"
INPUTS = CORPUS.parent / "inputs"
SRC = Path(__file__).resolve().parents[1] / "src"

# the input files that are the output of a corpus entry, byte for byte
RECORDED_INPUTS = {
    "semisimple_s1_n2.json": ["semisimple-tables", "--s", "1", "--n", "2"],
    "semisimple_s1_n3.json": ["semisimple-tables", "--s", "1", "--n", "3"],
    "assemble_semisimple_p2_d1_n3.json": [
        "assemble", "--p", "2", "--d", "1", "--n", "3",
        "--tables", "{inputs}/semisimple_s1_n3.json",
        "--klesh", "{inputs}/klesh_p2_d1_n3.json"],
}


def _resolve(argv) -> list:
    return [arg.replace("{inputs}", str(INPUTS)) for arg in argv]


def _run(argv) -> tuple:
    result = CliRunner().invoke(main, _resolve(argv))
    return result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest()


def _entries() -> list:
    return json.loads(CORPUS.read_text())


def _digest_of(argv) -> str:
    (entry,) = [e for e in _entries() if e["argv"] == argv]
    return entry["stdout_sha256"]


@pytest.mark.parametrize("entry", _entries(),
                         ids=lambda e: " ".join(e["argv"]))
def test_cli_output_is_pinned(entry):
    assert _run(entry["argv"]) == (entry["exit_code"],
                                   entry["stdout_sha256"])


def test_corpus_entries_are_distinct():
    argvs = [tuple(e["argv"]) for e in _entries()]
    assert len(set(argvs)) == len(argvs)


@pytest.mark.parametrize("name", sorted(RECORDED_INPUTS))
def test_recorded_inputs_are_pinned_outputs(name):
    data = (INPUTS / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() \
        == _digest_of(RECORDED_INPUTS[name])


def test_written_inputs_match_their_sources():
    for n in (3, 4):
        klesh = json.loads((INPUTS / f"klesh_p2_d1_n{n}.json").read_text())
        assert klesh == {"labels": [la.to_json()
                                    for la in enumerate_all(2, 1, n)]}
    tables = json.loads((INPUTS / "unknown_pair_tables_p2_n4.json").read_text())
    assert tables == {"tables": [t.to_json() for t in unknown_pair_tables()]}
    matrix = json.loads(
        (INPUTS / "assemble_semisimple_p2_d1_n3.json").read_text())
    del matrix["report"]
    assert json.loads(
        (INPUTS / "assemble_without_report.json").read_text()) == matrix


def test_reduce_mod_of_the_pinned_matrix_is_assemble_char():
    # one reduction: the two runs print the same bytes
    assemble = RECORDED_INPUTS["assemble_semisimple_p2_d1_n3.json"]
    reduced = ["reduce-mod", "--matrix",
               "{inputs}/assemble_semisimple_p2_d1_n3.json", "--char", "2"]
    assert _digest_of(reduced) == _digest_of([*assemble, "--char", "2"])


def _record() -> None:
    lines = []
    for entry in _entries():
        code, digest = _run(entry["argv"])
        lines.append(json.dumps({"argv": entry["argv"], "exit_code": code,
                                 "stdout_sha256": digest}))
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def _check() -> int:
    """Run every entry as a process and compare its exit code and the
    digest of its stdout; print the first mismatch, 1 if any."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    entries, bad = _entries(), 0
    for entry in entries:
        result = subprocess.run(
            [sys.executable, "-m", "cyclohecke.cli", *_resolve(entry["argv"])],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        got = result.returncode, hashlib.sha256(result.stdout).hexdigest()
        if got != (entry["exit_code"], entry["stdout_sha256"]):
            if not bad:
                print(f"mismatch: {' '.join(entry['argv'])}: exit {got[0]}, "
                      f"sha256 {got[1]}; pinned exit {entry['exit_code']}, "
                      f"sha256 {entry['stdout_sha256']}")
            bad += 1
    print(f"{len(entries) - bad} of {len(entries)} entries match as a process")
    return 1 if bad else 0


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
elif __name__ == "__main__" and sys.argv[1:] == ["--check"]:
    sys.exit(_check())
