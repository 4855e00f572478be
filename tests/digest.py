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
and its --out files.  The `thresholds` family puts each tolerance rule at
the edge of its band: every output of an input at the float value of a
tolerance field where the rule's verdict flips and at its two neighbours
(`thresholds_family`), then the strict-noise compositions.  Arrays enter by dtype, shape and bytes, floats by
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
from helpers import strict_noise_compositions


NUMBER = r"[-+]?\d[-+.e\d]*"


def feed(h, x, brief=False) -> None:
    """Hash x into h: dataclasses by their public fields, containers in order, floats by their bits.

    `brief` leaves out Tolerances records and the numbers in exception messages.
    """
    if brief and isinstance(x, es.Tolerances):
        return
    if dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            if not f.name.startswith("_"):
                h.update(f.name.encode())
                feed(h, getattr(x, f.name), brief)
    elif isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, dict):
        h.update(b"{%d" % len(x))
        for key in sorted(x, key=repr):
            feed(h, key, brief)
            feed(h, x[key], brief)
    elif isinstance(x, (list, tuple)):
        h.update(b"[%d" % len(x))
        for v in x:
            feed(h, v, brief)
    elif isinstance(x, (set, frozenset)):
        feed(h, sorted(x), brief)
    elif isinstance(x, float):
        h.update(struct.pack("<d", x))
    elif isinstance(x, BaseException):
        h.update(f"{type(x).__name__}: {re.sub(NUMBER, '#', str(x)) if brief else x}".encode())
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


def with_field(field: str, value: float):
    return dataclasses.replace(es.DEFAULT_TOL, **{field: value})


def verdict(x) -> str:
    """The sha256 of x as `feed` takes it in brief: what a tolerance field decides."""
    h = hashlib.sha256()
    feed(h, x, brief=True)
    return h.hexdigest()


def as_float(i: int) -> float:
    return float(np.int64(i).view(np.float64))


def flips(decide, lo: float, hi: float) -> list:
    """The floats p in (lo, hi] where decide(p) differs from decide at the float below p, left to right.

    Nonnegative floats are ordered as their int64 bit patterns, so each flip is
    found by bisection on those, from the last flip (or lo) to hi; the search
    stops when decide(hi) equals decide at the last flip.
    """
    cache: dict = {}

    def at(i: int):
        if i not in cache:
            cache[i] = decide(as_float(i))
        return cache[i]

    out, a, b = [], int(np.float64(lo).view(np.int64)), int(np.float64(hi).view(np.int64))
    while at(a) != at(b) and len(out) < 8:
        x, y = a, b
        while y - x > 1:
            mid = (x + y) // 2
            x, y = (mid, y) if at(mid) == at(a) else (x, mid)
        out.append(as_float(y))
        a = y
    return out


def circle_points(degrees) -> np.ndarray:
    t = np.radians(np.asarray(degrees, dtype=float))
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def with_entry(D: np.ndarray, i: int, j: int, d: float) -> np.ndarray:
    D = D.copy()
    D[i, j] = D[j, i] = d
    return D


def threshold_cases() -> list:
    """(label, field, lo, hi, run): run(tol) is every output the rule's inputs give under tol."""
    rng = np.random.default_rng(24)
    sphere = tensor_dist2(sphere_points(rng, 8, 4))
    skew = sphere.copy()
    skew[0, 1] = np.nextafter(np.nextafter(skew[0, 1], np.inf), np.inf)
    not_psd = 10.0 * (tensor_dist2(sphere_points(rng, 10, 5)) - tensor_dist2(1e-4 * rng.standard_normal((10, 1))))
    X = sphere_points(rng, 9, 5)
    X[:, 4] *= 1e-5
    squeezed = tensor_dist2(X / np.linalg.norm(X, axis=1)[:, None])
    circle = tensor_dist2(circle_points(np.arange(12) * 30.0 + 7.0) * (1.0 + 1e-9 * rng.standard_normal((12, 1))))
    cloud = tensor_dist2(rng.standard_normal((9, 3)))
    s = rng.dirichlet(np.ones(9))
    s[0] += 3e-12
    tetra, weights = tensor_dist2(rng.standard_normal((4, 3))), rng.dirichlet(np.ones(4))
    simplex = composition([4]) * (1.0 + 2e-9)
    blocks = relabel(composition([3, 3]) * (1.0 + 2e-9), rng)
    cross = relabel(crosspolytope(3), rng)
    path = [(i, i + 1) for i in range(1, 5)]
    rep = es.construct_orthorep(es.Graph.from_edges(5, path))
    pattern = with_entry(rep.edm.dist2, 0, 4, 2.0 + 3e-9)
    support = np.array([[0.0, 5e-12, 0.0], [5e-12, 0.0, -3e-12], [0.0, -3e-12, 0.0]])

    def graph_chain(n, edges):
        G = es.Graph.from_edges(n, edges)
        return lambda tol: [rep := call(es.construct_orthorep, G, tol)] + (
            [call(es.minimality_bound, rep), call(es.verify_sign_pattern, rep.edm.dist2, G, tol)]
            if isinstance(rep, es.OrthoRep) else [])

    def chain(M):
        return lambda tol: dense_chain(M, tol)

    return [
        ("entry symmetry", "symmetry", 0.0, 1e-12, lambda tol: dense_chain(skew, tol) + [call(es.eig, skew, tol)]),
        ("nonzero diagonal", "psd", 0.0, 1e-9, chain(with_entry(sphere, 2, 2, 3e-12))),
        ("negative entry", "psd", 0.0, 1e-9, chain(with_entry(sphere, 1, 4, -2e-12))),
        ("psd rule", "psd", 0.0, 1.0, chain(not_psd)),
        ("psd cross", "psd", 0.0, 1e-12, chain(cross)),
        ("rank cut", "rank", 1e-13, 1e-6, chain(squeezed)),
        ("rank compose", "rank", 0.0, 1e-12, chain(relabel(composition([3, 2], 1), rng))),
        ("sphericity", "solve", 0.0, 1e-3, chain(circle)),
        ("centering sum", "solve", 0.0, 1e-10,
         lambda tol: [edm := call(es.validate_edm, cloud, tol), call(es.gram_factor, edm, s)]),
        ("solve residuals", "solve", 0.0, 1e-12, chain(cross)),
        ("unit radius", "unit", 0.0, 1e-6, chain(simplex)),
        ("unit circumcenter", "unit", 0.0, 1e-12, chain(cross)),
        ("perron top", "cluster", 0.0, 1e-6, chain(simplex)),
        ("perron top blocks", "cluster", 0.0, 1e-6, chain(blocks)),
        ("multiplicity", "cluster", 0.0, 1.0, graph_chain(7, path[:3] + [(5, 6), (6, 7), (5, 7)])),
        ("perron hypothesis", "sign", 0.0, 1e-6, chain(with_entry(cross, 0, 2, 2.0 - 3e-9))),
        ("delta support", "sign", 0.0, 1e-6, chain(with_entry(cross, 0, 2, 2.0 + 3e-9))),
        ("interior", "sign", 0.0, 0.1, chain(tensor_dist2(circle_points([0.0, 90.0, 181.0])))),
        ("sign pattern", "sign", 0.0, 2.0,
         lambda tol: [call(es.verify_sign_pattern, M, rep.graph, tol) for M in (pattern, rep.edm)]),
        ("unit rows", "sign", 0.0, 1e-12, graph_chain(5, path)),
        ("recon", "recon", 0.0, 1e-12, graph_chain(5, path)),
        ("recon moved factor", "recon", 0.0, 1e-12,
         lambda tol: [edm := call(es.validate_edm, tetra, tol), call(es.gram_factor, edm, weights)]),
        ("support", "support", 0.0, 2.0, chain(cross)),
        ("support signed", "support", 0.0, 1e-10, lambda tol: [call(es.support_components, support, tol)]),
    ]


def thresholds_family() -> list:
    """Each rule's outputs at the float where its verdict flips and at that float's two neighbours.

    Each case's field runs from lo to hi with the other fields at their
    defaults; at each flip p (`flips`), every output is taken at p and at the
    floats on either side, so a `<=` read as `<` (or the reverse) changes the
    digest.  The rules whose deciding number is 0 (the interior rule on a
    zero row's w = 0, Rankin's min d_ij = 2 on the square) take 0 and its
    neighbours directly.  Then the strict-noise compositions, each through
    the whole chain under the strict profile.
    """
    out = []
    for label, field, lo, hi, run in threshold_cases():
        for p in flips(lambda v: verdict(run(with_field(field, v))), lo, hi):
            below, above = float(np.nextafter(p, -np.inf)), float(np.nextafter(p, np.inf))
            out.append([label, field, p, [run(with_field(field, v)) for v in (below, p, above)]])
    for label, M in (("interior zero row", relabel(composition([3], 1), np.random.default_rng(25))),
                     ("rankin square", crosspolytope(2))):
        out.append([label, [dense_chain(M, with_field("sign", v)) for v in (-5e-324, 0.0, 5e-324)]])
    out.append([dense_chain(M, es.PROFILES["strict"]) for M in strict_noise_compositions()])
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
    fam["thresholds"] = thresholds_family()
    return fam


def main_digest() -> None:
    for name, outputs in families().items():
        h = hashlib.sha256()
        feed(h, outputs)
        print(f"{name} {h.hexdigest()}")


if __name__ == "__main__":
    main_digest()
