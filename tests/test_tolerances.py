import ast
import math
import pathlib

import numpy as np
import pytest

from edmsphere.tolerances import (
    DEFAULT_TOL,
    PROFILES,
    Tolerances,
    from_profile,
    scale,
)

FIELDS = ["psd", "rank", "cluster", "solve", "unit", "sign", "support", "symmetry", "recon"]


def test_default_values():
    t = DEFAULT_TOL
    assert t.psd == 1e-9
    assert t.rank == 1e-8
    assert t.cluster == 1e-8
    assert t.solve == 1e-8
    assert t.unit == 1e-8
    assert t.sign == 1e-7
    assert t.support == 1e-12
    assert t.symmetry == 1e-12
    assert t.recon == 1e-10


def test_with_overrides_ignores_none():
    t = DEFAULT_TOL.with_overrides(psd=None, sign=1e-5)
    assert t.psd == DEFAULT_TOL.psd
    assert t.sign == 1e-5
    assert DEFAULT_TOL.sign == 1e-7  # original untouched (frozen)


def test_profiles_ordering():
    strict, default, loose = PROFILES["strict"], PROFILES["default"], PROFILES["loose"]
    for f in FIELDS:
        assert getattr(strict, f) < getattr(default, f) < getattr(loose, f)


def test_from_profile_unknown():
    with pytest.raises(ValueError, match="unknown tolerance profile"):
        from_profile("nope")


def test_scale():
    assert scale(np.zeros((3, 3))) == 1.0  # the zero rule: a matrix with no nonzero entry has scale 1
    assert scale(np.array([[0.5, -0.25], [0.1, 0.0]])) == 0.5
    assert scale(np.array([[3.0, -7.0], [1.0, 2.0]])) == 7.0
    assert scale(np.array([[0.0, -5e-324], [0.0, 0.0]])) == 5e-324
    assert scale(np.zeros((0, 0))) == 1.0


def test_scale_lets_nan_and_inf_through():
    # validation reads finiteness off scale(M): the zero rule must not map NaN or +-inf to 1
    assert np.isnan(scale(np.array([[0.0, np.nan], [0.0, 0.0]])))
    assert scale(np.array([[0.0, -np.inf], [0.0, 0.0]])) == np.inf
    assert scale(np.array([[1.0, np.inf], [np.nan, 0.0]])) != 1.0


@pytest.mark.parametrize("shape", [(4, 3, 3), (2, 3, 2, 2), (3, 0, 0), (0, 4, 4), (0, 0, 0)])
def test_scale_of_a_stack_is_each_matrix_scale(shape):
    S = 3.0 * np.random.default_rng(len(shape)).standard_normal(shape)
    got = scale(S)
    assert isinstance(got, np.ndarray) and got.shape == shape[:-2]
    expected = [scale(M) for M in S.reshape((math.prod(shape[:-2]),) + shape[-2:])]
    assert got.ravel().tolist() == expected
    assert all(type(s) is float for s in expected)


def tolerance_comparisons(source: str) -> list:
    """(line, text) of each comparison with an operand that reads a field of `tol`, `*.tol` or `*.tolerance`."""
    def reads_a_field(node) -> bool:
        return any(isinstance(a, ast.Attribute) and a.attr in FIELDS
                   and (a.value.id if isinstance(a.value, ast.Name) else getattr(a.value, "attr", None))
                   in ("tol", "tolerance")
                   for a in ast.walk(node))

    return [(node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and any(reads_a_field(op) for op in (node.left, *node.comparators))]


def test_tolerance_comparisons_are_found():
    source = ("a = x > tol.sign\nb = abs(l - 1.0) <= tol.cluster\nc = m < 2.0 - D.tol.sign\n"
              "d = y >= -self.tolerance.psd * s\ne = _within(x, tol.sign)\nf = tol.sign > 0 and k < cut\n")
    assert [line for line, _ in tolerance_comparisons(source)] == [1, 2, 3, 4, 6]


def test_every_tolerance_decision_goes_through_the_primitive():
    # the one-threshold rule: outside tolerances.py no comparison reads a tolerance field;
    # each decision calls `tolerances._within` or a rule built on it
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "edmsphere"
    found = [f"{path.name}:{line}: {text}" for path in sorted(src.glob("*.py")) if path.name != "tolerances.py"
             for line, text in tolerance_comparisons(path.read_text())]
    assert found == []


DECOMPOSE = {"eigh", "eigvalsh", "eig", "eigvals", "svd", "cholesky", "qr", "solve", "lstsq"}


def linalg_decompositions(source: str) -> list:
    """(line, name) of each numpy.linalg decomposition or solve that `source` imports or calls.

    A call is an attribute in DECOMPOSE of a name numpy.linalg is bound to:
    `linalg` (as in `np.linalg.eigh`), or the alias of `from numpy import
    linalg` or `import numpy.linalg as la`.
    """
    tree = ast.parse(source)
    linalg, found = {"linalg"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, a.name) for a in node.names if a.name in DECOMPOSE | {"*"}]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            linalg |= {a.asname or a.name for a in node.names if a.name == "linalg"}
        elif isinstance(node, ast.Import):
            linalg |= {a.asname for a in node.names if a.name == "numpy.linalg" and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DECOMPOSE:
            base = node.value
            if (base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)) in linalg:
                found.append((node.lineno, node.attr))
    return found


def test_linalg_decompositions_are_found():
    source = ("import numpy as np\nimport numpy.linalg as la\nfrom numpy import linalg as nl\n"
              "from numpy.linalg import cholesky\na = np.linalg.eigh(S)\nb = la.svd(C)\nc = nl.qr(M)\n"
              "d = np.linalg.norm(v)\ne = np.eigh(S)\n")
    assert linalg_decompositions(source) == [(4, "cholesky"), (5, "eigh"), (6, "svd"), (7, "qr")]


def test_numpy_linalg_decomposes_only_in_spectral():
    # the one-driver rule: every eigh, svd and cholesky (and any other decomposition or solve
    # of numpy.linalg) is called from spectral.py alone
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "edmsphere"
    found = [f"{path.name}:{line}: numpy.linalg.{name}" for path in sorted(src.glob("*.py"))
             if path.name != "spectral.py" for line, name in linalg_decompositions(path.read_text())]
    assert found == []
    assert {name for _, name in linalg_decompositions((src / "spectral.py").read_text())} == {"eigh", "svd", "cholesky"}
