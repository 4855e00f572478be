"""Every CLI subcommand's report, byte for byte, against recorded reports.

The inputs live in tests/golden/ (the worked five-point example and its
graph, a relabelled crosspolytope, a relabelled simplex composition with
zero rows of Delta, and a matrix that is not an EDM).  Each case runs
in-process in a scratch directory holding copies of them; stdout, the exit
code and any --out file must match tests/golden/reports.json, with only
`elapsed_seconds` blanked.

After an intended change to the reports, re-record with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
INPUTS = ("example.txt", "example.graph", "cross.json", "compose.txt", "notpsd.txt")

CASES = {
    "validate-example": ["validate", "example.txt"],
    "validate-cross": ["validate", "cross.json"],
    "validate-compose": ["validate", "compose.txt"],
    "validate-notpsd": ["validate", "notpsd.txt"],
    "decompose-example": ["decompose", "example.txt"],
    "decompose-cross": ["decompose", "cross.json", "--out", "decompose.out.json"],
    "decompose-compose": ["decompose", "compose.txt"],
    "decompose-notpsd": ["decompose", "notpsd.txt"],
    "rankin-example": ["check-rankin", "example.txt"],
    "rankin-cross": ["check-rankin", "cross.json"],
    "rankin-compose": ["check-rankin", "compose.txt"],
    "rankin-notpsd": ["check-rankin", "notpsd.txt"],
    "rankin-sample": ["check-rankin", "--sample", "3", "--trials", "5", "--seed", "7"],
    "orthorep-example": ["orthorep", "example.graph", "--out", "orthorep.out.json"],
    "gen-cross": ["gen", "crosspolytope", "-r", "3", "--out", "gen.txt"],
    "gen-sphere": ["gen", "random-sphere", "-n", "6", "-r", "3", "--seed", "4", "--out", "gen.txt"],
    "gen-simplex-raw": ["gen", "unit-simplex", "-n", "4"],
}


def run_case(argv, workdir) -> dict:
    """Exit code, stdout (elapsed_seconds blanked) and --out file text of one CLI run."""
    from edmsphere.cli import main

    for name in INPUTS:
        shutil.copy(GOLDEN / name, workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        files = {}
        if "--out" in argv:
            name = argv[argv.index("--out") + 1]
            files[name] = Path(name).read_text(encoding="utf-8")
    finally:
        os.chdir(cwd)
    stdout = re.sub(r'"elapsed_seconds": [-+.e0-9]+', '"elapsed_seconds": null', out.getvalue())
    return {"exit": code, "stdout": stdout, "files": files}


@pytest.fixture(scope="module")
def recorded():
    with open(GOLDEN / "reports.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_recording(case, recorded, tmp_path):
    assert run_case(CASES[case], tmp_path) == recorded[case]


if __name__ == "__main__":
    import tempfile

    reports = {}
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            reports[case] = run_case(argv, tmp)
    with open(GOLDEN / "reports.json", "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reports)} reports in {GOLDEN / 'reports.json'}", file=sys.stderr)
