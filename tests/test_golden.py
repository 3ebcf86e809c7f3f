"""Golden outputs: ``pml`` on the shipped corpus and on the invalid models
in ``golden/invalid``, compared byte for byte.

``golden/corpus.json`` records, for each invocation that
``loaders.cli_invocations`` lists, the exit code, stdout and stderr of
``pml`` run in the model's directory, so that file paths in the output are
relative to it.  A change that is meant to alter
output rewrites the file, and its diff shows what changed:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from loaders import cli_invocations, run_cli

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    runs = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {" ".join(r["argv"]): r for r in runs}


def test_the_golden_file_records_every_invocation(golden):
    assert list(golden) == [" ".join(argv) for _, argv in cli_invocations()]


@pytest.mark.parametrize("run", cli_invocations(), ids=lambda run: " ".join(run[1]))
def test_output_matches_the_golden_file(run, golden):
    cwd, argv = run
    assert run_cli(cwd, argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    records = [run_cli(cwd, argv) for cwd, argv in cli_invocations()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
