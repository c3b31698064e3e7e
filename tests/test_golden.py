"""Byte-level digests of the exact reports, compared with a committed table.

Each command runs in-process from a fixed working directory with a fixed
relative --out name (the report's config block records it), and the SHA-256 of
the report file must equal its entry in golden_reports.json. A change that
alters an exact report on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md. The sampling commands are left out: their bytes
pass through numpy float reductions and are only promised on one host.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from braidcomplex import cli

TABLE = Path(__file__).with_name("golden_reports.json")
OUT = "report.json"

COMMANDS = [
    "enumerate --n 2 --weight 2",
    "cohomology --n 3 --max-weight 3",
    "cohomology --n 3 --max-weight 4",
    "cohomology --n 4 --max-weight 4",
    "sder --n 3 --max-weight 3",
    "div-check --n 3 --max-weight 3",
    "div-check --n 4 --max-weight 3",
    "div-check --n 3 --max-weight 4",
    "aw-test --seed 1",
    "transport-test --trunc 3 --seed 1",
    "report --n 3 --max-weight 3 --seed 1",
]


def report_digest(command, workdir):
    """SHA-256 of the report `command` writes to `OUT`, run with cwd `workdir`."""
    cli.main(command.split() + ["--out", OUT])
    return hashlib.sha256((Path(workdir) / OUT).read_bytes()).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_report_bytes_match_golden_digest(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert report_digest(command, tmp_path) == json.loads(TABLE.read_text())[command]


if __name__ == "__main__":
    import os

    table = {}
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as workdir:
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                table[command] = report_digest(command, workdir)
            finally:
                os.chdir(cwd)
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
