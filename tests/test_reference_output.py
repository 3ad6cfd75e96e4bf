"""The certify commands of the benchmark's W1 (AC-11 grid) and W2 (one
n = 2000 certificate) workloads, run in-process: each one's stdout and exit
code must equal the digests recorded in perfbench/reference.json.  A
refactor of the pipeline that changes one byte of a certificate fails
here."""

import hashlib
import json
from pathlib import Path

import pytest

from ghlcert.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _commands():
    reference = json.loads(REFERENCE.read_text())
    for workload in ("w1_grid", "w2_large"):
        for command, expected in sorted(reference[workload].items()):
            yield pytest.param(command, expected, id=command)


@pytest.mark.parametrize("command,expected", _commands())
def test_certify_output_matches_reference(command, expected, capsys):
    code = main(command.split())
    out = capsys.readouterr().out.encode()
    assert code == expected["exit"]
    assert len(out) == expected["bytes"]
    assert hashlib.sha256(out).hexdigest() == expected["sha256"]
