"""Byte-identical CLI outputs over the sweep ranges.

``golden_outputs.json`` maps each command line below to the sha256 of its
exit code, stdout and stderr.  Any change to a printed number, witness or
error message shows up as a digest mismatch.  Regenerate the file (only
when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from g2chow.cli import main
from support import SWEEPS

GOLDEN = pathlib.Path(__file__).with_name("golden_outputs.json")


def _span(values):
    return f"{min(values)}..{max(values)}"


def commands():
    out = []
    for case_id, grid in sorted(SWEEPS.items()):
        argv = ["sweep", "--case", case_id]
        for flag in sorted(grid[0]):
            argv += [f"--{flag}", _span([params[flag] for params in grid])]
        out.append(argv)
    for n in range(3, 9):
        out.append(["complex", "--type", "2", "--N", str(n)])
    out.append(["complex", "--type", "3", "--n1", "4", "--n2", "4", "--q", "3", "--a", "1"])
    out.append(["complex", "--type", "3", "--n1", "3", "--n2", "3", "--q", "4", "--a", "1"])
    for case_id, grid in sorted(SWEEPS.items()):
        argv = ["complex", "--from-case", case_id]
        for flag, value in sorted(grid[0].items()):
            argv += [f"--{flag}", str(value)]
        out.append(argv + ["--q", "3", "--a", "1"])
    return [argv + ["--format", "json"] for argv in out]


def digest(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    blob = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_output_matches_golden_digest(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(argv) == golden[" ".join(argv)]


def test_golden_file_covers_exactly_these_commands():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands())


if __name__ == "__main__":
    table = {" ".join(argv): digest(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}")
