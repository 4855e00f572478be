"""The result records' dataclass API, against a recording and against `dataclasses.dataclass` itself.

For each of the 19 records: its `fields()` (name, default or factory,
init, repr, compare), `__match_args__` and `__dataclass_params__`; the
repr of a sample instance built by keyword and by position; `replace`
and `asdict` of it; the TypeError on a missing, an unknown and a surplus
argument; `==` and `hash` against a copy; and the FrozenInstanceError of
assigning and deleting a field and assigning a new attribute.  Frozen
records compare and hash by their fields, the others by identity.

The messages are the interpreter's, so the recording in
tests/golden/records.json holds for the Python minor version it was made
with; on any version, every record must behave as the dataclass that
`dataclasses.make_dataclass` builds from the record's own fields and
flags.  A fresh process checks that a record's `__init__` is generated
when its first instance is built, with the dataclass signature.

After an intended change to a record, re-record with

    PYTHONPATH=src python tests/test_records.py
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edmsphere

GOLDEN = Path(__file__).with_name("golden") / "records.json"
PYTHON = "%d.%d" % sys.version_info[:2]
RECORDS = sorted(name for name in edmsphere.__all__
                 if isinstance(getattr(edmsphere, name), type) and dataclasses.is_dataclass(getattr(edmsphere, name)))
# the one record whose construction checks its arguments; the others take any value
SAMPLES = {"Graph": {"node_count": 3, "edges": frozenset({(1, 2)})}}


def _outcome(call) -> str | None:
    """The type and message of what call() raises, or None."""
    try:
        call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _default(f) -> str | None:
    if f.default is not dataclasses.MISSING:
        return repr(f.default)
    if f.default_factory is not dataclasses.MISSING:
        return f"factory {f.default_factory.__qualname__}"
    return None


def sample(cls) -> dict:
    """The keyword arguments of a sample instance of record class cls."""
    return SAMPLES.get(cls.__name__) or {f.name: f"<{f.name}>" for f in dataclasses.fields(cls) if f.init}


def observe(cls) -> dict:
    """What a caller can see of record class cls, as JSON."""
    fields = dataclasses.fields(cls)
    kwargs = sample(cls)
    record, twin = cls(**kwargs), cls(*kwargs.values())
    first = next(iter(kwargs))
    required = [f.name for f in fields
                if f.init and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    compared = tuple(getattr(record, f.name) for f in fields if (f.compare if f.hash is None else f.hash))
    return {
        "fields": [[f.name, _default(f), f.init, f.repr, f.compare] for f in fields],
        "match_args": list(cls.__match_args__),
        "params": repr(cls.__dataclass_params__),
        "repr": repr(record),
        "positional": repr(twin),
        "replace": repr(dataclasses.replace(record, **{first: record.__dict__[first] * 2})),
        "asdict": repr(dataclasses.asdict(record)),
        "missing": _outcome(lambda: cls(**{k: v for k, v in kwargs.items() if k != required[0]}))
        if required else None,
        "unknown": _outcome(lambda: cls(**kwargs, nope=0)),
        "surplus": _outcome(lambda: cls(*kwargs.values(), *[0] * (len(fields) + 1 - len(kwargs)))),
        "equal_twin": record == twin,
        "equal_self": record == record,
        "hash": "fields" if hash(record) == hash(compared) else
                "identity" if hash(record) == object.__hash__(record) else "other",
        "assign": _outcome(lambda: setattr(record, first, kwargs[first])),
        "delete": _outcome(lambda: delattr(twin, first)),
        "new_attribute": _outcome(lambda: setattr(record, "nope", 0)),
    }


def reference(cls):
    """The dataclass that `dataclasses.dataclass` makes from cls's fields, flags and own methods."""
    params = cls.__dataclass_params__
    fields = [(f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory, init=f.init,
                                                 repr=f.repr, compare=f.compare, hash=f.hash))
              for f in dataclasses.fields(cls)]
    namespace = {name: value for name, value in vars(cls).items()
                 if name in ("__doc__", "__post_init__", "__bool__", "__module__")}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, eq=params.eq, frozen=params.frozen)


def record() -> dict:
    return {"python": PYTHON, "records": {name: observe(getattr(edmsphere, name)) for name in RECORDS}}


def test_every_record_is_pinned():
    assert len(RECORDS) == 19
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))["records"]) == RECORDS


@pytest.mark.parametrize("name", RECORDS)
def test_record_matches_the_recording(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["python"] != PYTHON:
        pytest.skip(f"recorded with Python {golden['python']}, whose messages may read differently")
    assert observe(getattr(edmsphere, name)) == golden["records"][name]


@pytest.mark.parametrize("name", RECORDS)
def test_record_behaves_as_the_stdlib_dataclass(name):
    cls = getattr(edmsphere, name)
    assert observe(cls) == observe(reference(cls))


def test_a_record_generates_its_init_when_its_first_instance_is_built():
    # in a fresh process: importing every layer builds only the default Tolerances, so every
    # other record still has the initializer that generates its own
    script = """\
import inspect, json
import test_records as t

def signatures():
    return {name: str(inspect.signature(getattr(t.edmsphere, name))) for name in t.RECORDS}

before = signatures()
for name in t.RECORDS:
    cls = getattr(t.edmsphere, name)
    cls(**t.sample(cls))
print(json.dumps([before, signatures()]))
"""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    dataclass_signatures = {name: str(inspect.signature(reference(getattr(edmsphere, name)))) for name in RECORDS}
    built_at_import = {"Tolerances": dataclass_signatures["Tolerances"]}  # DEFAULT_TOL
    assert before == {name: "(*args, **kwargs)" for name in RECORDS} | built_at_import
    assert after == dataclass_signatures


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(RECORDS)} records in {GOLDEN}")
