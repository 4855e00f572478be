"""Each script in demos/ runs to completion against the package in src/.

Its stdout must match tests/golden/demos/<script name>.txt byte for byte:
the demos print at precision 4 from fixed seeds, so any change there is a
change to what they show.  After an intended one, re-record with

    for d in demos/*.py; do
        PYTHONPATH=src python "$d" > "tests/golden/demos/$(basename "$d" .py).txt"
    done
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("golden") / "demos"


def test_all_demos_found():
    assert len(DEMOS) == 4
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
