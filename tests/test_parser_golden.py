"""The command line parser's own output, byte for byte, against recorded output.

Each case runs `main(argv)` in process at a fixed help width of 80 columns
and ends in argparse's SystemExit: `--help` for the tool and for each of the
five subcommands, `--version`, and usage errors, both those a subcommand's
parser reports (with its own usage line) and those the top-level parser
reports after a subcommand (with the top-level usage line, which lists every
subcommand).  stdout, stderr and the exit code must match
tests/golden/parser.json.

The wording is the stdlib argparse's, so the recorded bytes hold for the
Python minor version they were recorded with; on any version, every case
must also match the output of the parser that `build_parser()` builds with
all five subcommands.

After an intended change to the parser, re-record with

    PYTHONPATH=src python tests/test_parser_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden") / "parser.json"
COMMANDS = ("validate", "orthorep", "decompose", "gen", "check-rankin")
PYTHON = "%d.%d" % sys.version_info[:2]

CASES = {
    "help": ["--help"],
    "version": ["--version"],
    "no-arguments": [],
    "unknown-command": ["nope", "example.txt"],
    **{f"{name}-help": [name, "--help"] for name in COMMANDS},
    "validate-missing-matrix": ["validate"],
    "orthorep-unknown-option": ["orthorep", "example.graph", "--nope"],
    "decompose-bad-float": ["decompose", "--tol-psd", "x", "cross.json"],
    "gen-unknown-kind": ["gen", "cube", "-n", "4"],
    "check-rankin-missing-value": ["check-rankin", "--trials"],
    "check-rankin-bad-profile": ["check-rankin", "--tol-profile", "tight", "example.txt"],
}


def parse_output(parse, argv) -> dict:
    """Exit code, stdout and stderr of a parse that ends in argparse's SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return {"code": exc.value.code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> dict:
    from edmsphere.cli import main

    return {
        "python": PYTHON,
        "cases": {name: {"argv": argv, **parse_output(main, argv)} for name, argv in CASES.items()},
    }


@pytest.fixture(autouse=True)
def help_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("name", list(CASES))
def test_parser_output_matches_the_recording(name):
    from edmsphere.cli import main

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["python"] != PYTHON:
        pytest.skip(f"recorded with Python {golden['python']}, whose argparse may word it differently")
    case = golden["cases"][name]
    assert case["argv"] == CASES[name]
    assert parse_output(main, CASES[name]) == {key: case[key] for key in ("code", "stdout", "stderr")}


@pytest.mark.parametrize("name", list(CASES))
def test_parser_output_matches_the_full_parser(name):
    from edmsphere.cli import build_parser, main

    assert parse_output(main, CASES[name]) == parse_output(build_parser().parse_args, CASES[name])


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(CASES)} cases in {GOLDEN}")
