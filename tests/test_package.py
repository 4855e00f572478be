"""The package surface: the same public names, with the module-level helpers kept out of it."""

import ast
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edmsphere
import edmsphere.cli as cli

PUBLIC_NAMES = [
    "ComponentSplit", "ConsistencyError", "CrosspolytopeResult", "DEFAULT_TOL",
    "Decomposition", "DecompositionBlock", "DeltaDimReport", "DeltaMatrix",
    "E_NOT_IN_COLSPACE", "Edm", "EdmRejection", "EdmSphereError", "EigenSystem",
    "FormatError", "GramFactor", "Graph", "MinimalityReport", "NON_SPHERICAL", "NOT_EDM",
    "OrthoRep", "PROFILES", "PreconditionError", "PsdResult", "RankinReport",
    "SPHERICAL", "SignPatternReport", "SimplexCertificate", "SpectralError",
    "SphericalCertificate", "Tolerances", "__version__", "adjacency", "apply_permutation",
    "centering_gram", "certify_simplex", "components", "construct_orthorep",
    "crosspolytope_recognize", "delta_of", "eig", "embedding_dim_via_delta",
    "format_matrix_text", "from_profile", "gen_crosspolytope", "gen_random_spherical",
    "gen_regular_simplex", "gen_unit_simplex", "gram_factor", "kuperberg_decompose",
    "min_offdiagonal", "minimality_bound",
    "nonnegative_delta", "parse_graph", "parse_matrix", "parse_matrix_json",
    "parse_matrix_text", "rankin_codimension2_check",
    "require_edm", "spherical_certificate", "support_components", "unit_simplex_gamma",
    "validate_edm", "verify_sign_pattern",
]


def test_public_names():
    assert len(PUBLIC_NAMES) == 63
    assert sorted(edmsphere.__all__) == PUBLIC_NAMES
    assert all(hasattr(edmsphere, name) for name in PUBLIC_NAMES)


def test_module_helpers_are_not_package_attributes():
    # the tolerance rule and the symmetry check are imported from their modules
    assert not hasattr(edmsphere, "scale")
    assert not hasattr(edmsphere, "as_symmetric")


# -- import footprint: a CLI process imports only the layers its subcommand runs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# imported first by the child's site module; writes the edmsphere modules, numpy,
# the digest modules (OpenSSL's _hashlib costs milliseconds to load) and the JSON
# decoder loaded at exit, the number of objects in the permanent generation
# then, and whether the collector was enabled then
EXIT_HOOK = """\
import atexit, gc, os, sys

def _write_loaded():
    loaded = sorted(name for name in sys.modules
                    if name.startswith("edmsphere.") or name in ("numpy", "hashlib", "_hashlib", "json.decoder"))
    with open(os.path.join(os.path.dirname(__file__), "loaded.txt"), "w") as fh:
        fh.write("\\n".join(loaded))
    with open(os.path.join(os.path.dirname(__file__), "frozen.txt"), "w") as fh:
        fh.write(str(gc.get_freeze_count()))
    with open(os.path.join(os.path.dirname(__file__), "enabled.txt"), "w") as fh:
        fh.write(str(gc.isenabled()))

atexit.register(_write_loaded)
"""


def _child(tmp_path, args, cwd=GOLDEN, returncode=0):
    """Run `python *args` from cwd; the edmsphere layers and digest modules it had loaded at exit."""
    (tmp_path / "sitecustomize.py").write_text(EXIT_HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=120)
    assert proc.returncode == returncode, proc.stderr.decode(errors="replace")
    return proc, {name.removeprefix("edmsphere.") for name in (tmp_path / "loaded.txt").read_text().split()}


# inputs and --out files are digested by the interpreter's built-in SHA-256, and
# only a JSON matrix is read with the JSON decoder (asserted on every row)
DIGESTS = {"hashlib", "_hashlib"}


@pytest.mark.parametrize("argv, code, allowed, absent", [
    # the help names the profile variable, read from `errors`: neither loads the tolerances or numpy
    (["--version"], 0, {"errors"}, {"tolerances", "numpy"} | DIGESTS),
    (["--help"], 0, {"errors"}, {"tolerances", "numpy"} | DIGESTS),
    (["validate", "example.txt"], 0, None, {"decomposition", "orthorep"} | DIGESTS),
    # a rejected matrix forms no Delta, and a text matrix is read without the graph layer
    (["validate", "notpsd.txt"], 2, None, {"decomposition", "orthorep", "graphs"} | DIGESTS),
    (["gen", "crosspolytope", "-r", "3", "--out", os.devnull], 0, None,
     {"decomposition", "orthorep", "graphs"} | DIGESTS),
    (["orthorep", "example.graph"], 0, None, {"decomposition", "matrixio"} | DIGESTS),
    (["decompose", "cross.json"], 0, None, {"orthorep"} | DIGESTS),
    (["check-rankin", "compose.txt"], 0, None, {"orthorep"} | DIGESTS),
    # numpy.random imports `secrets`, which loads _hashlib, so only the layers are asserted
    (["check-rankin", "--sample", "4", "--trials", "10"], 0, None, {"orthorep", "matrixio"}),
], ids=["version", "help", "validate", "validate-rejected", "gen-out", "orthorep", "decompose-json", "check-rankin-text",
        "check-rankin-sample"])
def test_cli_loads_only_what_its_subcommand_runs(tmp_path, argv, code, allowed, absent):
    _, loaded = _child(tmp_path, ["-m", "edmsphere.cli", *argv], returncode=code)
    assert "errors" in loaded
    if allowed is not None:
        assert loaded <= allowed, loaded - allowed
    else:  # a subcommand that runs reads its tolerances, and loads numpy with them
        assert {"tolerances", "numpy"} <= loaded
    if absent is not None:
        assert not loaded & absent, loaded & absent
    assert ("json.decoder" in loaded) == argv[-1].endswith(".json")


@pytest.mark.parametrize("builtin", [True, False], ids=["built-in", "hashlib"])
def test_digest_is_the_sha256_of_hashlib(monkeypatch, builtin):
    inputs = [b""] + [path.read_bytes() for path in sorted(GOLDEN.iterdir()) if path.is_file()]
    expected = [hashlib.sha256(data).hexdigest() for data in inputs]
    calls = []
    if not builtin:
        for name in ("_sha2", "_sha256"):  # Python 3.12 and later, and before
            monkeypatch.setitem(sys.modules, name, None)
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
    assert [cli._sha256(data) for data in inputs] == expected
    assert len(calls) == (0 if builtin else len(inputs))


# -- the process entry: `run()` is main() with the collector off, and gc.freeze() before the
# interpreter finalizes

def _elapsed_blanked(out: bytes) -> bytes:
    """stdout with the report's elapsed_seconds, the one field that differs between runs, set to 0."""
    return re.sub(rb'"elapsed_seconds": [-+.e0-9]+', b'"elapsed_seconds": 0', out)


def _main_in_process(argv):
    """main(argv)'s exit code, argparse's own SystemExit (--version, usage errors) included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, code", [
    (["validate", "example.txt"], 0),
    (["validate", "notpsd.txt"], 2),
    (["validate", "--tol-nope", "example.txt"], 2),
    (["--version"], 0),
], ids=["validate", "not-psd", "usage-error", "version"])
def test_process_entry_exits_as_main_does(tmp_path, capsysbinary, monkeypatch, argv, code):
    proc, loaded = _child(tmp_path, ["-m", "edmsphere.cli", *argv], returncode=code)
    assert "errors" in loaded  # the atexit hook ran after the entry returned
    assert int((tmp_path / "frozen.txt").read_text()) > 0
    assert (tmp_path / "enabled.txt").read_text() == "False"
    monkeypatch.chdir(GOLDEN)
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert _main_in_process(argv) == code
    # main() itself freezes nothing and leaves the collector as it found it
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    own = capsysbinary.readouterr()
    assert _elapsed_blanked(proc.stdout) == _elapsed_blanked(own.out)
    assert proc.stderr == own.err


def _garbage_after_collector_off_runs(trials: int) -> int:
    """What gc.collect() finds unreachable after main() ran four subcommands with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for argv in (["validate", "example.txt"], ["decompose", "cross.json"], ["orthorep", "example.graph"],
                     ["check-rankin", "--sample", "4", "--trials", str(trials)]):
            assert cli.main(argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_collector_off_runs_leave_garbage_that_does_not_grow_with_the_work(monkeypatch, capsys):
    # a CLI process runs with the collector off, so its memory is bounded only if the
    # package makes no cyclic garbage: what is left (argparse's parsers) is the same
    # for 10 trials and for 1000
    monkeypatch.chdir(GOLDEN)
    _garbage_after_collector_off_runs(10)  # first imports and caches
    assert _garbage_after_collector_off_runs(10) == _garbage_after_collector_off_runs(1000)


def test_importing_the_package_leaves_the_collector_alone(tmp_path):
    # and loads no numpy, so that run() switches the collector off before numpy's import
    script = """\
import gc, sys
before = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
import edmsphere, edmsphere.cli
print(before == (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()), gc.isenabled(), "numpy" in sys.modules)
"""
    proc, _ = _child(tmp_path, ["-c", script])
    assert proc.stdout.decode().split() == ["True", "True", "False"]


@pytest.mark.parametrize("argv", [
    ["gen", "random-sphere", "-n", "7", "-r", "3", "--seed", "42", "--out", "out.txt"],
    ["orthorep", str(GOLDEN / "example.graph"), "--out", "out.json"],
], ids=["gen", "orthorep"])
def test_process_entry_writes_the_out_bytes_of_main(tmp_path, capsysbinary, monkeypatch, argv):
    child_dir, own_dir = tmp_path / "child", tmp_path / "own"
    child_dir.mkdir()
    own_dir.mkdir()
    proc, _ = _child(tmp_path, ["-m", "edmsphere.cli", *argv], cwd=child_dir)
    monkeypatch.chdir(own_dir)
    assert cli.main(argv) == 0
    assert _elapsed_blanked(proc.stdout) == _elapsed_blanked(capsysbinary.readouterr().out)
    assert (child_dir / argv[-1]).read_bytes() == (own_dir / argv[-1]).read_bytes()


def test_console_script_runs_the_main_block_entry():
    scripts = re.search(r'^\[project\.scripts\]\nedmsphere = "([\w.]+):(\w+)"$',
                        (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    module, name = scripts.groups()
    entry = getattr(importlib.import_module(module), name)
    [main_block] = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                    if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in main_block.body] == [f"{name}()"]
    assert entry is cli.run


def test_first_public_access_binds_the_whole_namespace(tmp_path):
    # bench/tracer.py reads edmsphere.__all__, then sys.modules["edmsphere.<layer>"] for these
    tracer_layers = {"spectral", "edm", "graphs", "orthorep", "decomposition", "matrixio", "cli"}
    script = """\
import json, sys
import edmsphere, edmsphere.cli
before = sorted(name for name in sys.modules if name.startswith("edmsphere."))
exported = sorted(edmsphere.__all__)
after = sorted(name for name in sys.modules if name.startswith("edmsphere."))
namespace = {}
exec("from edmsphere import *", namespace)
print(json.dumps([before, after, sorted(set(namespace) - {"__builtins__"}), exported]))
"""
    proc, _ = _child(tmp_path, ["-c", script])
    before, after, star, exported = json.loads(proc.stdout)
    assert before == ["edmsphere.cli", "edmsphere.errors"]
    assert {f"edmsphere.{layer}" for layer in tracer_layers} <= set(after)
    assert star == exported == PUBLIC_NAMES


def test_dir_lists_the_public_names_before_any_access(tmp_path):
    proc, _ = _child(tmp_path, ["-c", "import edmsphere; print(*dir(edmsphere))"])
    assert set(PUBLIC_NAMES) <= set(proc.stdout.decode().split())


def test_first_accesses_from_many_threads_bind_one_namespace(tmp_path):
    # more threads than cores race for the first access, through names, __all__ and import *
    script = f"""\
import sys, threading
sys.setswitchinterval(1e-6)
import edmsphere
names = {PUBLIC_NAMES!r}
start = threading.Barrier(8)
got = [None] * 8

def read(k):
    start.wait()
    if k == 6:
        got[k] = {{name: getattr(edmsphere, name) for name in edmsphere.__all__}}
    elif k == 7:
        namespace = {{}}
        exec("from edmsphere import *", namespace)
        got[k] = {{name: namespace[name] for name in names}}
    else:
        got[k] = {{name: getattr(edmsphere, name) for name in names[k:] + names[:k]}}

threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
modules = [module for name, module in sys.modules.items() if name.startswith("edmsphere.")]
truth = {{name: next(vars(m)[name] for m in modules if name in getattr(m, "__all__", ()))
          for name in names if name != "__version__"}}
for seen in got:
    assert all(seen[name] is obj for name, obj in truth.items())
assert sorted(edmsphere.__all__) == names
print("ok")
"""
    proc, _ = _child(tmp_path, ["-c", script])
    assert proc.stdout.decode().split() == ["ok"]
