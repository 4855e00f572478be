"""The package surface: the same public names, with the module-level helpers kept out of it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edmsphere

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
    "load_matrix", "min_offdiagonal", "minimality_bound",
    "nonnegative_delta", "parse_graph", "parse_matrix", "parse_matrix_json",
    "parse_matrix_text", "profile_from_env", "rankin_codimension2_check",
    "require_edm", "spherical_certificate", "support_components", "unit_simplex_gamma",
    "validate_edm", "verify_sign_pattern",
]


def test_public_names():
    assert len(PUBLIC_NAMES) == 65
    assert sorted(edmsphere.__all__) == PUBLIC_NAMES
    assert all(hasattr(edmsphere, name) for name in PUBLIC_NAMES)


def test_module_helpers_are_not_package_attributes():
    # the tolerance rule and the symmetry check are imported from their modules
    assert not hasattr(edmsphere, "scale")
    assert not hasattr(edmsphere, "as_symmetric")


# -- import footprint: a CLI process imports only the layers its subcommand runs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# imported first by the child's site module; writes the edmsphere modules, and the
# digest modules (OpenSSL's _hashlib costs milliseconds to load), loaded at exit
EXIT_HOOK = """\
import atexit, os, sys

def _write_loaded():
    loaded = sorted(name for name in sys.modules
                    if name.startswith("edmsphere.") or name in ("hashlib", "_hashlib"))
    with open(os.path.join(os.path.dirname(__file__), "loaded.txt"), "w") as fh:
        fh.write("\\n".join(loaded))

atexit.register(_write_loaded)
"""


def _child(tmp_path, args):
    """Run `python *args` from tests/golden; the edmsphere layers and digest modules it had loaded at exit."""
    (tmp_path / "sitecustomize.py").write_text(EXIT_HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=GOLDEN, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc, {name.removeprefix("edmsphere.") for name in (tmp_path / "loaded.txt").read_text().split()}


DIGESTS = {"hashlib", "_hashlib"}


@pytest.mark.parametrize("argv, allowed, absent", [
    (["--version"], {"errors", "tolerances"}, DIGESTS),
    (["validate", "example.txt"], None, {"decomposition", "orthorep"}),
    (["orthorep", "example.graph"], None, {"decomposition", "matrixio"}),
    # numpy.random imports `secrets`, which loads _hashlib, so only the layers are asserted
    (["check-rankin", "--sample", "4", "--trials", "10"], None, {"orthorep", "matrixio"}),
], ids=["version", "validate", "orthorep", "check-rankin-sample"])
def test_cli_loads_only_what_its_subcommand_runs(tmp_path, argv, allowed, absent):
    _, loaded = _child(tmp_path, ["-m", "edmsphere.cli", *argv])
    assert "errors" in loaded and "tolerances" in loaded
    if allowed is not None:
        assert loaded <= allowed, loaded - allowed
    if absent is not None:
        assert not loaded & absent, loaded & absent


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
    assert before == ["edmsphere.cli", "edmsphere.errors", "edmsphere.tolerances"]
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
