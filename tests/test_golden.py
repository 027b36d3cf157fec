"""Pinned CLI runs: each entry of golden/corpus.json is an argv, its exit
code and the sha256 of its standard output, run in process.

Re-record the digests of every listed argv (after adding entries, or for
an output change that CHANGES.md names with its reason) with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from cyclohecke.cli import main

CORPUS = Path(__file__).parent / "golden" / "corpus.json"


def _run(argv) -> tuple:
    result = CliRunner().invoke(main, argv)
    return result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest()


def _entries() -> list:
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", _entries(),
                         ids=lambda e: " ".join(e["argv"]))
def test_cli_output_is_pinned(entry):
    assert _run(entry["argv"]) == (entry["exit_code"],
                                   entry["stdout_sha256"])


def test_corpus_entries_are_distinct():
    argvs = [tuple(e["argv"]) for e in _entries()]
    assert len(set(argvs)) == len(argvs)


def _record() -> None:
    lines = []
    for entry in _entries():
        code, digest = _run(entry["argv"])
        lines.append(json.dumps({"argv": entry["argv"], "exit_code": code,
                                 "stdout_sha256": digest}))
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
