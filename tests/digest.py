"""Bitwise digests of the library's outputs, one sha256 per input family.

Each family is a short list of seeded inputs built with plain numpy: points
on spheres, `gen_random_spherical` samples, relabelled crosspolytopes and
simplex compositions (with and without lone points), Gaussian clouds,
matrices that are not EDMs (not PSD, not finite, not symmetric, and the
other entry rules), small inputs under the strict and loose profiles, and
graphs.  For each input the digest takes every public field of what the
library returns: the Edm or EdmRejection of `validate_edm`, the sphericity
certificate, the Delta report, the Gram factor at the default centering, at
the centroid and at a random one, the decompositions, and the orthonormal
representations with their sign-pattern and minimality reports; the `cli`
family takes the report of each subcommand, with `elapsed_seconds` dropped,
and its --out files.  Arrays enter by dtype, shape and bytes, floats by
their bits, exceptions by type and message; fields whose name starts with
an underscore are skipped, so two source trees agree on a family exactly
when its outputs agree bit for bit.

Run it against a source tree as

    PYTHONPATH=src python tests/digest.py > digest.txt

which prints one `family sha256` line per family.  Two such files differ
on the lines of the families whose outputs changed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import re
import struct
import tempfile

import numpy as np

import edmsphere as es
from edmsphere.cli import main


def feed(h, x) -> None:
    """Hash x into h: dataclasses by their public fields, containers in order, floats by their bits."""
    if dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            if not f.name.startswith("_"):
                h.update(f.name.encode())
                feed(h, getattr(x, f.name))
    elif isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, dict):
        h.update(b"{%d" % len(x))
        for key in sorted(x, key=repr):
            feed(h, key)
            feed(h, x[key])
    elif isinstance(x, (list, tuple)):
        h.update(b"[%d" % len(x))
        for v in x:
            feed(h, v)
    elif isinstance(x, (set, frozenset)):
        feed(h, sorted(x))
    elif isinstance(x, float):
        h.update(struct.pack("<d", x))
    elif isinstance(x, BaseException):
        h.update(f"{type(x).__name__}: {x}".encode())
    else:
        h.update(repr(x).encode())


def call(f, *args):
    """f(*args), or the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # recorded: an outcome may be an exception
        return exc


def relabel(D: np.ndarray, rng) -> np.ndarray:
    p = rng.permutation(D.shape[0])
    return D[np.ix_(p, p)]


def sphere_points(rng, n: int, r: int) -> np.ndarray:
    X = rng.standard_normal((n, r))
    return X / np.linalg.norm(X, axis=1)[:, None]


def tensor_dist2(X: np.ndarray) -> np.ndarray:
    """Squared distances by the difference tensor: exactly symmetric."""
    diff = X[:, None, :] - X[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def near_symmetric(D: np.ndarray, rng) -> np.ndarray:
    """D with each entry moved by a few ulps on its own: symmetric within tol.symmetry, not exactly."""
    M = D * (1.0 + 4e-16 * rng.standard_normal(D.shape))
    np.fill_diagonal(M, 0.0)
    return M


def crosspolytope(r: int) -> np.ndarray:
    n = 2 * r
    return 2.0 * (np.ones((n, n)) - np.eye(n)) + np.kron(np.eye(r), [[0.0, 2.0], [2.0, 0.0]])


def composition(orders, lone: int = 0) -> np.ndarray:
    """Unit simplices of the given orders in orthogonal subspaces, then `lone` points at distance 2 from all."""
    n = sum(orders) + lone
    D = 2.0 * (np.ones((n, n)) - np.eye(n))
    pos = 0
    for m in orders:
        D[pos:pos + m, pos:pos + m] = 2.0 * m / (m - 1.0) * (np.ones((m, m)) - np.eye(m))
        pos += m
    return D


def dense_chain(M, tol=es.DEFAULT_TOL) -> list:
    """Everything the certification chain returns for M."""
    edm = call(es.validate_edm, M, tol)
    return [edm] + (edm_chain(edm) if isinstance(edm, es.Edm) else [])


def edm_chain(edm) -> list:
    """The certificate, Delta report, decompositions and Gram factors of an Edm."""
    cert = call(es.spherical_certificate, edm)
    out = [cert]
    if isinstance(cert, es.SphericalCertificate) and cert.unit_spherical:
        out.append(call(es.embedding_dim_via_delta, edm, cert))
        for f in (es.certify_simplex, es.kuperberg_decompose, es.crosspolytope_recognize,
                  es.rankin_codimension2_check):
            out.append(call(f, edm))
    n = edm.n
    out.append(call(es.gram_factor, edm))
    out.append(call(es.gram_factor, edm, np.full(n, 1.0 / n) if n else np.zeros(0)))
    if n:
        out.append(call(es.gram_factor, edm, np.random.default_rng(n).dirichlet(np.ones(n))))
    return out


def dense_families() -> dict:
    rng = np.random.default_rng(20)
    fam = {
        "sphere": [tensor_dist2(sphere_points(rng, n, n // 2)) for n in (12, 100, 200)],
        "near-symmetric": [near_symmetric(tensor_dist2(sphere_points(rng, n, n // 2)), rng) for n in (12, 100)],
        "cross": [relabel(crosspolytope(r), rng) for r in (1, 3, 50, 200)],
        "compose": [relabel(composition(o), rng) for o in ([2, 2, 2], [4, 3, 2, 2], [8, 5, 5, 3, 2] * 8)],
        "compose-lone": [relabel(composition(o, lone), rng) for o, lone in (([2], 1), ([4, 3, 2], 2), ([6, 5, 4] * 10, 7))],
        "cloud": [tensor_dist2(rng.standard_normal((n, n // 2))) for n in (12, 100, 200)],
        "not-psd": [],
    }
    for n in (12, 100, 200):  # |x_i - x_j|^2 - |y_i - y_j|^2: B has a negative eigenvalue
        fam["not-psd"].append(tensor_dist2(rng.standard_normal((n, n // 2))) - tensor_dist2(0.3 * rng.standard_normal((n, 1))))
    base = tensor_dist2(sphere_points(rng, 6, 3))
    entries = []
    for i, j, v in ((1, 2, np.nan), (0, 3, np.inf), (4, 0, -np.inf), (2, 2, 1e-3), (1, 4, -1.0), (0, 5, 1e307)):
        M = base.copy()
        M[i, j] = M[j, i] = v
        entries.append(M)
    skew = base.copy()
    skew[0, 1] += 1e-3
    tiny_skew = base.copy()
    tiny_skew[2, 3] += 1e-14
    signed = base.copy()
    signed[0, 0] = signed[3, 3] = -0.0
    entries += [skew, tiny_skew, signed, base[:, :5], np.zeros((0, 0)), np.zeros((1, 1)), np.zeros((4, 4))]
    fam["entry-rules"] = entries
    return fam


def profile_family() -> list:
    rng = np.random.default_rng(21)
    out = []
    for name in ("strict", "loose"):
        tol = es.PROFILES[name]
        for D in (tensor_dist2(sphere_points(rng, 16, 8)), relabel(composition([4, 3, 2], 2), rng),
                  tensor_dist2(sphere_points(rng, 20, 2)) * (1.0 + 1e-9 * rng.standard_normal())):
            noise = 1e-11 * rng.standard_normal(D.shape)
            out.append(dense_chain(D + noise + noise.T - 2 * np.diag(np.diag(noise)), tol))
    return out


def graph_family() -> list:
    rng = np.random.default_rng(22)
    graphs = [
        es.Graph.from_edges(0, []), es.Graph.from_edges(1, []), es.Graph.from_edges(7, []),
        es.Graph.from_edges(40, [(i, i + 1) for i in range(1, 40)]),
        es.Graph.from_edges(30, [(1, i) for i in range(2, 31)]),
        es.Graph.from_edges(9, [(i, i % 9 + 1) for i in range(1, 10)]),
        es.Graph.from_edges(10, [(i, i % 10 + 1) for i in range(1, 11)]),
        es.Graph.from_edges(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]),
        es.Graph.from_edges(24, [(2 * i + 1, 2 * i + 2) for i in range(12)]),
    ]
    for n, p in ((60, 0.08), (120, 0.03)):
        upper = np.triu(rng.random((n, n)) < p, 1)
        graphs.append(es.Graph.from_edges(n, [(i + 1, j + 1) for i, j in zip(*np.nonzero(upper))]))
    out = []
    for G in graphs:
        rep = call(es.construct_orthorep, G)
        out.append(rep)
        if isinstance(rep, es.OrthoRep):
            out += [call(es.verify_sign_pattern, rep.edm.dist2, G), call(es.minimality_bound, rep),
                    call(es.gram_factor, rep.edm)]
    return out


def matrix_text(D: np.ndarray) -> str:
    return f"{D.shape[0]}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in D.tolist())


def cli_family() -> list:
    rng = np.random.default_rng(23)
    inputs = {
        "sphere.txt": matrix_text(tensor_dist2(sphere_points(rng, 40, 20))),
        "cross.txt": matrix_text(relabel(crosspolytope(6), rng)),
        "compose.txt": matrix_text(relabel(composition([4, 3, 2, 2], 2), rng)),
        "cloud.txt": matrix_text(tensor_dist2(rng.standard_normal((20, 6)))),
        "rankin.txt": matrix_text(tensor_dist2(sphere_points(rng, 8, 6))),
        "path.graph": "12\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 12)),
    }
    runs = [["validate", name] for name in ("sphere.txt", "cross.txt", "compose.txt", "cloud.txt")]
    runs += [["validate", "sphere.txt", "--tol-profile", "strict"], ["decompose", "compose.txt"],
             ["decompose", "cross.txt", "--out", "out.json"], ["decompose", "sphere.txt"],
             ["orthorep", "path.graph", "--out", "out.json"], ["gen", "crosspolytope", "-r", "4"],
             ["gen", "random-sphere", "-n", "30", "-r", "12", "--seed", "5"], ["gen", "unit-simplex", "-n", "5"],
             ["check-rankin", "rankin.txt"], ["check-rankin", "cross.txt"],
             ["check-rankin", "--sample", "4", "--trials", "60", "--seed", "9"],
             ["check-rankin", "--sample", "2", "--trials", "40", "--seed", "3"]]
    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in inputs.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            for argv in runs:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                report = re.sub(r'"elapsed_seconds": [-+.e0-9]+,?\s*', "", stdout.getvalue())
                files = {}
                if "--out" in argv:
                    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                        files["out"] = fh.read()
                out.append([argv, code, report, files])
        finally:
            os.chdir(cwd)
    return out


def families() -> dict:
    fam = {name: [dense_chain(M) for M in inputs] for name, inputs in dense_families().items()}
    fam["gen"] = []
    for n, r in ((6, 3), (100, 50), (150, 40), (200, 100)):
        sample = call(es.gen_random_spherical, n, r, n * r)
        fam["gen"].append([sample] + (edm_chain(sample[0]) if isinstance(sample, tuple) else []))
    fam["profiles"] = profile_family()
    fam["orthorep"] = graph_family()
    fam["cli"] = cli_family()
    return fam


def main_digest() -> None:
    for name, outputs in families().items():
        h = hashlib.sha256()
        feed(h, outputs)
        print(f"{name} {h.hexdigest()}")


if __name__ == "__main__":
    main_digest()
