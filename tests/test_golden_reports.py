"""Every CLI subcommand's report, byte for byte, against recorded reports.

The inputs live in tests/golden/ (the worked five-point example and its
graph, a relabelled crosspolytope, a relabelled simplex composition with
zero rows of Delta, and a matrix that is not an EDM).  Each case runs
in-process in a scratch directory holding copies of them; stdout, the exit
code and any --out file must match tests/golden/reports.json, with only
`elapsed_seconds` blanked.

After an intended change to the reports, re-record with

    PYTHONPATH=src python tests/test_golden_reports.py

which prints, for each case that changed, every changed JSON path with its
absolute difference, flags every change that is not a float moving, and ends
with the largest float difference.
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
    "rankin-sample-150": ["check-rankin", "--sample", "4", "--trials", "150", "--seed", "11"],
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


def changes(old, new, path="$"):
    """(path, |float difference| or None) for each leaf where `new` differs from `old`.

    Report texts are compared as JSON when both parse, else token by token;
    None marks a change that is not a float moving (a string, a key, a
    length, a type, an exit code).
    """
    if isinstance(old, str) and isinstance(new, str) and old != new:
        try:
            return changes(json.loads(old), json.loads(new), path)
        except ValueError:
            a, b = old.split(), new.split()
            if len(a) != len(b):
                return [(path, None)]
            return [c for i, (x, y) in enumerate(zip(a, b)) for c in _token_change(x, y, f"{path}[{i}]")]
    if isinstance(old, dict) and isinstance(new, dict):
        found = []
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}"
            found += changes(old[key], new[key], sub) if key in old and key in new else [(sub, None)]
        return found
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [c for i, (x, y) in enumerate(zip(old, new)) for c in changes(x, y, f"{path}[{i}]")]
    if old == new and type(old) is type(new):
        return []
    if all(isinstance(v, float) for v in (old, new)):
        return [(path, abs(new - old))]
    return [(path, None)]


def _token_change(a, b, path):
    if a == b:
        return []
    try:
        return [(path, abs(float(b) - float(a)))]
    except ValueError:
        return [(path, None)]


def test_changes_lists_float_and_other_changes():
    old = {"exit": 0, "stdout": '{"a": [1.0, 2.0], "b": "x"}', "files": {"m.txt": "2\n0.0 1.5\n"}}
    new = {"exit": 2, "stdout": '{"a": [1.0, 2.5], "b": "y", "c": 1}', "files": {"m.txt": "2\n0.0 1.25\n"}}
    assert changes(old, new) == [
        ("$.exit", None), ("$.files.m.txt[2]", 0.25),
        ("$.stdout.a[1]", 0.5), ("$.stdout.b[0]", None), ("$.stdout.c", None),
    ]
    assert changes(old, old) == []


if __name__ == "__main__":
    import tempfile

    with open(GOLDEN / "reports.json", encoding="utf-8") as fh:
        before = json.load(fh)
    reports = {}
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            reports[case] = run_case(argv, tmp)
    largest = 0.0
    for case in sorted(before.keys() | reports.keys()):
        diff = changes(before.get(case), reports.get(case), case)
        if diff:
            print(f"{case}: {len(diff)} changed", file=sys.stderr)
        for path, delta in diff:
            print(f"  {path}: " + ("NOT A FLOAT CHANGE" if delta is None else f"{delta:.3g}"), file=sys.stderr)
            largest = max(largest, delta or 0.0)
    print(f"largest float difference {largest:.3g}", file=sys.stderr)
    with open(GOLDEN / "reports.json", "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reports)} reports in {GOLDEN / 'reports.json'}", file=sys.stderr)
