"""The three benchmark workloads: seeded inputs, planted verdicts, and ops.

Every input is generated here with plain numpy from the run's seed, never by
the program under test, and carries the verdict its planted structure
implies.  An op carries one input to a verdict through the public API (or
the CLI); the benchmark compares that verdict with the planted one.

Input sizes and mix proportions are fixed per workload; the seed only moves
labels, random coordinates and op order, so runs on different seeds do the
same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

# Squared distances between random unit vectors fall below 2 - SIGN_MARGIN
# for some pair in every random configuration used here; generation checks it.
SIGN_MARGIN = 1e-3


@dataclass
class Op:
    """One input and the verdict its planted structure implies."""

    op_id: str
    kind: str
    n: int
    payload: dict
    expected: dict
    files: dict = field(default_factory=dict)  # path -> bytes written in set-up


# ---------------------------------------------------------------- generators

def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag, index])


def sphere_points(rng, n: int, r: int) -> np.ndarray:
    X = rng.standard_normal((n, r))
    return X / np.linalg.norm(X, axis=1)[:, None]


def sqdist(X: np.ndarray) -> np.ndarray:
    """Squared distances from a Gram matrix, exactly symmetric, zero diagonal."""
    G = X @ X.T
    sq = np.diag(G).copy()
    D = sq[:, None] + sq[None, :] - 2.0 * G
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return np.maximum(D, 0.0)


def random_sphere_edm(rng, n: int, r: int) -> np.ndarray:
    """n random unit vectors in R^r; some pair is closer than sqrt(2)."""
    D = sqdist(sphere_points(rng, n, r))
    off = D + np.diag(np.full(n, np.inf))
    if not off.min() < 2.0 - SIGN_MARGIN:
        raise RuntimeError("random configuration has no pair closer than sqrt(2)")
    return D


def relabel(D: np.ndarray, rng):
    """Randomly relabel points; returns (permuted D, new 0-based label of each old point)."""
    perm = rng.permutation(D.shape[0])
    new_label = np.empty_like(perm)
    new_label[perm] = np.arange(perm.size)
    return D[np.ix_(perm, perm)], new_label


def crosspolytope(r: int) -> np.ndarray:
    """Vertices +-e_i, antipodal pairs on rows (2i, 2i+1)."""
    n = 2 * r
    D = 2.0 * (np.ones((n, n)) - np.eye(n))
    for i in range(r):
        D[2 * i, 2 * i + 1] = D[2 * i + 1, 2 * i] = 4.0
    return D


def composition(orders, singletons: int = 0) -> np.ndarray:
    """Unit-circumradius regular simplices in mutually orthogonal subspaces.

    Block i has orders[i] >= 2 points at squared distance 2m/(m-1); points
    of different blocks, and the trailing lone points, are at distance 2.
    """
    sizes = list(orders) + [1] * singletons
    n = sum(sizes)
    D = 2.0 * (np.ones((n, n)) - np.eye(n))
    pos = 0
    for m in sizes:
        if m >= 2:
            D[pos:pos + m, pos:pos + m] = 2.0 * m / (m - 1.0) * (np.ones((m, m)) - np.eye(m))
        pos += m
    return D


def block_orders(rng, total: int, lo: int = 2, hi: int = 8) -> list:
    """Random block orders in [lo, hi] summing to exactly `total` (>= 2 blocks)."""
    while True:
        orders = []
        left = total
        while left > hi:
            m = int(rng.integers(lo, hi + 1))
            if left - m >= lo or left - m == 0:
                orders.append(m)
                left -= m
        if left:
            orders.append(left)
        if len(orders) >= 2 and all(lo <= m <= hi for m in orders):
            return orders


def planted_blocks(orders, singletons: int, new_label) -> tuple[list, list]:
    """Block partition in new 1-based labels, in the documented decomposition order.

    Blocks are ordered by smallest member with ascending members; lone points
    (zero rows of Delta) fold into the last block.
    """
    blocks = []
    pos = 0
    for m in orders:
        blocks.append(sorted(int(new_label[i]) + 1 for i in range(pos, pos + m)))
        pos += m
    lone = sorted(int(new_label[i]) + 1 for i in range(pos, pos + singletons))
    blocks.sort(key=lambda b: b[0])
    blocks[-1] = sorted(blocks[-1] + lone)
    return blocks, lone


def antipodal_pairs(r: int, new_label) -> list:
    """Crosspolytope pairs in new 1-based labels, smallest-first, flattened."""
    pairs = sorted(sorted((int(new_label[2 * i]) + 1, int(new_label[2 * i + 1]) + 1)) for i in range(r))
    return [i for p in pairs for i in p]


def gaussian_cloud(rng, n: int, r: int) -> np.ndarray:
    """Gaussian points in R^r with n >= r + 2: generically on no sphere."""
    return sqdist(rng.standard_normal((n, r)))


def pseudo_euclidean(rng, n: int, r: int) -> np.ndarray:
    """|x_i - x_j|^2 - |y_i - y_j|^2: nonnegative, but B has one negative eigenvalue."""
    X = rng.standard_normal((n, r))
    y = 0.3 * rng.standard_normal((n, 1))
    D = sqdist(X) - sqdist(y)
    if not D[~np.eye(n, dtype=bool)].min() > 0.0:
        raise RuntimeError("pseudo-Euclidean input has a negative entry")
    return D


def connected_edges(rng, nodes, extra: int) -> list:
    """A random tree on `nodes` plus `extra` random chords (connected by construction)."""
    nodes = list(nodes)
    edges = set()
    for k in range(1, len(nodes)):
        u, v = nodes[k], nodes[int(rng.integers(0, k))]
        edges.add((min(u, v), max(u, v)))
    for _ in range(extra):
        u, v = rng.choice(nodes, size=2, replace=False)
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    return sorted(edges)


def graph_case(rng, kind: str, n: int):
    """Edge list and planted nontrivial components (1-based, relabelled)."""
    labels = rng.permutation(n) + 1
    if kind == "path":
        groups = [list(range(n))]
        edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    elif kind == "star":
        groups = [list(range(n))]
        edges = [(labels[0], labels[i]) for i in range(1, n)]
    elif kind == "sparse":
        groups = [list(range(n))]
        edges = connected_edges(rng, labels, extra=n // 4)
    elif kind == "many":
        groups = []
        pos = 0
        isolated = n // 8
        while pos < n - isolated:
            m = min(int(rng.integers(2, 9)), n - isolated - pos)
            if m < 2:
                break
            groups.append(list(range(pos, pos + m)))
            pos += m
        edges = []
        for g in groups:
            edges += connected_edges(rng, labels[g], extra=int(rng.integers(0, 3)))
    elif kind == "edgeless":
        groups, edges = [], []
    else:
        raise ValueError(kind)
    edges = sorted({(int(min(u, v)), int(max(u, v))) for u, v in edges})
    comps = sorted(sorted(int(labels[i]) for i in g) for g in groups)
    return edges, comps


def matrix_text(D: np.ndarray, comment: str) -> bytes:
    rows = "\n".join(" ".join(repr(float(x)) for x in row) for row in D)
    return f"# {comment}\n{D.shape[0]}\n{rows}\n".encode()


def matrix_json(D: np.ndarray) -> bytes:
    return json.dumps({"n": int(D.shape[0]), "rows": D.tolist()}).encode()


def graph_text(n: int, edges) -> bytes:
    return ("%d\n" % n + "".join(f"{i} {j}\n" for i, j in edges)).encode()


# ------------------------------------------------------------------- mixes

# Mix design.  Latency is ordered by size class first.  Each percentile falls
# mid-way through a group of classes whose costs spread evenly over about
# 1.5x, never on a boundary between size classes: under intermittent CPU
# contention from other tenants (ops slow by up to ~1.5x at random), the
# percentile of such a group shifts smoothly with the contended share of a
# run, where the percentile of one uniform group would jump between its
# uncontended and contended values.

# (kind, n, count) per cycle: 9 ops below the n=200 group, 10 in it, 9 at
# n=400.  The median is mid-way through n=200, the 90th percentile in n=400.
DENSE_MIX = [
    ("sphere", 100, 2), ("cross", 100, 1), ("compose", 100, 1), ("cloud", 100, 1),
    ("not-psd", 100, 1), ("gen", 100, 2), ("not-psd", 200, 1),
    ("sphere", 200, 2), ("cross", 200, 1), ("compose", 200, 1), ("cloud", 200, 2),
    ("gen", 200, 2), ("not-psd", 400, 2),
    ("sphere", 400, 3), ("cross", 400, 2), ("compose", 400, 2), ("cloud", 400, 2),
]

# 6 ops below n=200, 12 at n=200, 6 at n=400; same placement as dense.
GRAPH_MIX = [
    ("edgeless", 100, 1), ("star", 100, 1), ("sparse", 100, 1), ("path", 100, 1), ("many", 100, 1),
    ("edgeless", 200, 1),
    ("star", 200, 3), ("many", 200, 3), ("sparse", 200, 3), ("path", 200, 3),
    ("many", 400, 1), ("star", 400, 2), ("sparse", 400, 2), ("path", 400, 1),
]

def dense_certify(seed: int, workdir: str) -> list:
    ops = []
    idx = 0
    for kind, n, count in DENSE_MIX:
        for _ in range(count):
            rng = op_rng(seed, "dense-certify", idx)
            r = n // 2
            unit = {"edm": True, "embedding_dim": r, "status": "spherical", "unit": True,
                    "delta_dim": r, "factor_dim": r}
            payload = {}
            if kind == "sphere":
                payload["D"] = random_sphere_edm(rng, n, r)
                expected = dict(unit, used_perron=False)
            elif kind == "gen":
                payload["gen"] = (n, r, int(rng.integers(2**31)))
                expected = dict(unit, used_perron=False)
            elif kind == "cross":
                payload["D"], _ = relabel(crosspolytope(r), rng)
                expected = dict(unit, used_perron=True)
            elif kind == "compose":
                orders = block_orders(rng, n)
                payload["D"], _ = relabel(composition(orders), rng)
                r = n - len(orders)
                expected = {"edm": True, "embedding_dim": r, "status": "spherical", "unit": True,
                            "delta_dim": r, "factor_dim": r, "used_perron": True}
            elif kind == "cloud":
                payload["D"] = gaussian_cloud(rng, n, r)
                expected = {"edm": True, "embedding_dim": r, "status": "non-spherical",
                            "unit": False, "factor_dim": r}
            else:
                payload["D"] = pseudo_euclidean(rng, n, r)
                expected = {"edm": False, "reason": "not-psd", "witness_negative": True}
            ops.append(Op(f"dense-certify/{idx:03d}:{kind}-n{n}", kind, n, payload, expected))
            idx += 1
    return ops


def graph_orthorep(seed: int, workdir: str) -> list:
    from edmsphere import Graph

    ops = []
    idx = 0
    for kind, n, count in GRAPH_MIX:
        for _ in range(count):
            rng = op_rng(seed, "graph-orthorep", idx)
            edges, comps = graph_case(rng, kind, n)
            k = len(comps)
            expected = {"k": k, "d": n - k if k else n, "components": comps, "unit": k > 0,
                        "sign_ok": True, "m": k, "bound_ok": True, "tight": True}
            payload = {"G": Graph.from_edges(n, edges), "edges": edges}
            ops.append(Op(f"graph-orthorep/{idx:03d}:{kind}-n{n}", kind, n, payload, expected))
            idx += 1
    return ops


# cli-batch: (kind, n, count) per cycle; n is the matrix or graph order.
# Every op pays process start (~0.27 s here), so the light ops sit together;
# the median falls among them and the 90th percentile inside the
# check-rankin --sample group, below the one large orthorep --out report.
CLI_MIX = [
    ("validate-text", 60, 2), ("validate-json", 40, 2), ("validate-reject", 40, 2),
    ("decompose", 40, 2), ("gen-cross", 40, 2), ("gen-sphere", 40, 1), ("rankin-file", 32, 1),
    ("rankin-cross", 40, 1), ("orthorep", 60, 3), ("rankin-sample", 6, 3), ("orthorep-out", 120, 1),
]


def cli_batch(seed: int, workdir: str) -> list:
    ops = []
    idx = 0
    for kind, n, count in CLI_MIX:
        for _ in range(count):
            rng = op_rng(seed, "cli-batch", idx)
            base = os.path.join(workdir, f"op{idx:03d}")
            files = {}
            if kind == "validate-text":
                r = n // 2
                files[base + ".txt"] = matrix_text(random_sphere_edm(rng, n, r), f"sphere n={n} r={r}")
                argv = ["validate", base + ".txt"]
                expected = {"exit": 0, "edm": True, "embedding_dim": r, "status": "spherical",
                            "unit": True, "delta_dim": r}
            elif kind == "validate-json":
                D, _ = relabel(crosspolytope(n // 2), rng)
                files[base + ".json"] = matrix_json(D)
                argv = ["validate", base + ".json"]
                expected = {"exit": 0, "edm": True, "embedding_dim": n // 2, "status": "spherical",
                            "unit": True, "delta_dim": n // 2}
            elif kind == "validate-reject":
                files[base + ".txt"] = matrix_text(pseudo_euclidean(rng, n, n // 2), "not an EDM")
                argv = ["validate", base + ".txt"]
                expected = {"exit": 2, "edm": False, "reason": "not-psd"}
            elif kind == "decompose":
                lone = int(rng.integers(0, 3))
                orders = block_orders(rng, n - lone)
                D, new = relabel(composition(orders, lone), rng)
                blocks, lone_labels = planted_blocks(orders, lone, new)
                files[base + ".txt"] = matrix_text(D, "simplex composition")
                argv = ["decompose", base + ".txt"]
                expected = {"exit": 0, "blocks": blocks, "isolated": lone_labels,
                            "r": n - len(orders)}
            elif kind in ("orthorep", "orthorep-out"):
                edges, comps = graph_case(rng, "many" if kind == "orthorep" else "sparse", n)
                files[base + ".graph"] = graph_text(n, edges)
                argv = ["orthorep", base + ".graph"]
                expected = {"exit": 0, "k": len(comps), "d": n - len(comps), "m": len(comps),
                            "tight": True, "sign_ok": True}
                if kind == "orthorep-out":
                    argv += ["--out", base + ".out.json"]
                    expected["out_points"] = [n, n - len(comps)]
            elif kind == "gen-cross":
                argv = ["gen", "crosspolytope", "-r", str(n // 2), "--out", base + ".txt"]
                expected = {"exit": 0, "order": n, "embedding_dim": n // 2, "unit": True,
                            "sha_ok": True, "matrix_ok": True}
            elif kind == "gen-sphere":
                argv = ["gen", "random-sphere", "-n", str(n), "-r", str(n // 2),
                        "--seed", str(int(rng.integers(2**31))), "--out", base + ".txt"]
                expected = {"exit": 0, "order": n, "embedding_dim": n // 2, "unit": True,
                            "sha_ok": True}
            elif kind == "rankin-file":
                files[base + ".txt"] = matrix_text(random_sphere_edm(rng, n, n - 2), "n = r + 2")
                argv = ["check-rankin", base + ".txt"]
                expected = {"exit": 0, "r": n - 2, "codim2_ok": True}
            elif kind == "rankin-cross":
                D, new = relabel(crosspolytope(n // 2), rng)
                files[base + ".json"] = matrix_json(D)
                argv = ["check-rankin", base + ".json"]
                expected = {"exit": 0, "r": n // 2, "crosspolytope": True,
                            "pairs": antipodal_pairs(n // 2, new)}
            else:
                trials = 100
                argv = ["check-rankin", "--sample", str(n - 2), "--trials", str(trials),
                        "--seed", str(int(rng.integers(2**31)))]
                expected = {"exit": 0, "all_ok": True, "trials": trials}
            ops.append(Op(f"cli-batch/{idx:03d}:{kind}-n{n}", kind, n, {"argv": argv}, expected, files))
            idx += 1
    return ops


# ---------------------------------------------------------------------- ops

def run_dense(es, op: Op) -> dict:
    if op.kind == "gen":
        n, r, gseed = op.payload["gen"]
        res, _ = es.gen_random_spherical(n, r, gseed)
    else:
        res = es.validate_edm(op.payload["D"])
        if isinstance(res, es.EdmRejection):
            return {"edm": False, "reason": res.reason,
                    "witness_negative": res.witness_eigenvalue is not None and res.witness_eigenvalue < 0}
    cert = es.spherical_certificate(res)
    v = {"edm": True, "embedding_dim": res.embedding_dim, "status": cert.status,
         "unit": cert.unit_spherical}
    if cert.unit_spherical:
        rep = es.embedding_dim_via_delta(res, cert)
        v["delta_dim"] = rep.dimension
        v["used_perron"] = rep.used_perron
    v["factor_dim"] = int(es.gram_factor(res).config.shape[1])
    return v


def run_graph(es, op: Op) -> dict:
    G = op.payload["G"]
    rep = es.construct_orthorep(G)
    sign = es.verify_sign_pattern(rep.edm, G)
    bound = es.minimality_bound(rep)
    return {"k": rep.k, "d": rep.d, "components": [list(c) for c in rep.split.nontrivial],
            "unit": rep.unit_spherical, "sign_ok": sign.ok, "m": bound.m,
            "bound_ok": bound.bound_ok, "tight": bound.tight}


def cli_verdict(op: Op, code: int, stdout: str) -> dict:
    """Verdict fields read from one CLI report (and the files it wrote)."""
    rep = json.loads(stdout)
    res, checks = rep["result"], rep["checks"]
    v = {"exit": code}
    argv = op.payload["argv"]
    cmd = argv[0]
    for path, digest in rep["inputs"].items():
        with open(path, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                v["input_digest"] = "mismatch"
    if cmd == "validate":
        v["edm"] = res["edm"]
        if not res["edm"]:
            v["reason"] = res["reason"]
            return v
        v.update(embedding_dim=res["embedding_dim"], status=res["spherical"]["status"],
                 unit=res["spherical"]["unit_spherical"])
        if "delta_dimension" in checks:
            v["delta_dim"] = checks["delta_dimension"]["dimension"]
    elif cmd == "decompose":
        v.update(blocks=[b["indices"] for b in res["blocks"]],
                 isolated=checks["isolated_assignment"], r=checks["r"])
    elif cmd == "orthorep":
        v.update(k=res["k"], d=res["d"], m=checks["minimality"]["m"],
                 tight=checks["minimality"]["tight"], sign_ok=checks["sign_pattern"]["ok"])
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                pts = json.load(fh)["points"]
            v["out_points"] = [len(pts), len(pts[0]) if pts else 0]
    elif cmd == "gen":
        out = argv[argv.index("--out") + 1]
        with open(out, "rb") as fh:
            data = fh.read()
        v.update(order=res["order"], embedding_dim=res["embedding_dim"], unit=res["unit_spherical"],
                 sha_ok=hashlib.sha256(data).hexdigest() == res["sha256"])
        if argv[1] == "crosspolytope":
            rows = [line.split() for line in data.decode().splitlines()
                    if line.strip() and not line.startswith("#")][1:]
            M = np.array(rows, dtype=float)
            v["matrix_ok"] = bool(np.array_equal(M, crosspolytope(int(argv[3]))))
    elif "--sample" in argv:
        v.update(all_ok=res["all_ok"], trials=len(res["min_offdiag_per_trial"]))
    else:
        v["r"] = res["r"]
        if "codimension2" in res:
            v["codim2_ok"] = res["codimension2"]["ok"]
        if "crosspolytope" in res:
            v["crosspolytope"] = res["crosspolytope"]["ok"]
            v["pairs"] = res["crosspolytope"]["permutation"]
    return v


CHILD_TIMEOUT_S = 120


def run_child(argv, check=False, **popen_kwargs):
    """Run a child process to its end; returns (exit code, stdout).

    subprocess.run with a timeout polls for the child's exit with sleeps of
    up to 50 ms, which rounds a child's measured time up in steps of as
    much.  Here the wait blocks, and a timer kills a child that runs past
    CHILD_TIMEOUT_S.
    """
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with subprocess.Popen(argv, **popen_kwargs) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            out, _ = proc.communicate()
        finally:
            timer.cancel()
    if killed:
        raise subprocess.TimeoutExpired(argv, CHILD_TIMEOUT_S)
    if check and proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return proc.returncode, out


class CliRunner:
    """Runs one CLI op, as a subprocess or (for the traced run) in-process."""

    def __init__(self, root: str, inprocess: bool):
        self.inprocess = inprocess
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.cwd = root
        self.last_report_bytes = 0

    def __call__(self, es, op: Op) -> dict:
        argv = op.payload["argv"]
        if self.inprocess:
            import edmsphere.cli as cli

            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            out = buf.getvalue()
        else:
            code, out = run_child([sys.executable, "-m", "edmsphere.cli", *argv], env=self.env,
                                  cwd=self.cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
        self.last_report_bytes = len(out.encode())
        if "--out" in argv:
            self.last_report_bytes += os.path.getsize(argv[argv.index("--out") + 1])
        return cli_verdict(op, code, out)


WORKLOADS = {
    "dense-certify": (dense_certify, run_dense),
    "graph-orthorep": (graph_orthorep, run_graph),
    "cli-batch": (cli_batch, None),
}
