"""A digest of the verdicts on a fixed corpus of distance matrices, recorded in tests/golden/verdicts.json.

The inputs are the sphericity certificate's families (`helpers.certificate_families`),
20 unit-circle points with radial jitter 1e-6 at four seeds, 8 points on S^4 plus
one at radius 3 with B's fifth eigenvalue squeezed to 0.3 of the default rank cut,
and the distance matrix of the orthonormal representation of the path on 40 nodes.
Each runs under every tolerance profile, as given and relabelled by one fixed
permutation, at scales c = 1e-6, 1 and 1e6.  The 300 strict-noise compositions
(`helpers.strict_noise_compositions`) run as given, at c = 1, under the strict
profile, whose bands their noise matches.  A record holds the sphericity status
(or the rejection reason), `unit_spherical`, `embedding_dim`, the Delta dimension
of a unit spherical input and the type of any exception raised; and, for every
accepted input, `factor_dim`, the column count of `gram_factor` at its default
centering, or in `factor_error` the type of the exception it raised.  A unit
spherical record also holds what the other readers of Delta give, or the type of
the exception each raised: `simplex`, the method and `is_simplex` of
`certify_simplex`; where 2 <= n - r <= r, `kuperberg`, the block count of
`kuperberg_decompose`; and where n = 2r, `crosspolytope`, the `ok` of
`crosspolytope_recognize`.

After an intended change of verdicts, re-record with

    PYTHONPATH=src python tests/corpus.py

which lists each record that changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import helpers
from edmsphere import (
    PROFILES,
    Edm,
    EdmRejection,
    Graph,
    certify_simplex,
    construct_orthorep,
    crosspolytope_recognize,
    embedding_dim_via_delta,
    gram_factor,
    kuperberg_decompose,
    spherical_certificate,
    validate_edm,
)

RECORDING = Path(__file__).with_name("golden") / "verdicts.json"
SCALES = (1e-6, 1.0, 1e6)


def inputs() -> dict:
    corpus = dict(helpers.certificate_families())
    for seed in range(4):
        corpus[f"jittered-circle-{seed}"] = helpers.jittered_circle(seed)
    corpus["dropped-eigenvalue"] = helpers.squeezed_sphere(np.random.default_rng(1), 9, 4, 0.3, 1e-8, outlier=True)
    corpus["path-40"] = construct_orthorep(Graph.from_edges(40, [(i, i + 1) for i in range(1, 40)])).edm.dist2
    return corpus


def verdict(M: np.ndarray, tol) -> dict:
    record = {"status": None, "unit_spherical": None, "embedding_dim": None, "delta_dim": None, "error": None,
              "factor_dim": None, "factor_error": None}
    edm = None
    try:
        edm = validate_edm(M, tol)
        if isinstance(edm, EdmRejection):
            record["status"] = f"not-edm: {edm.reason}"
            return record
        record["embedding_dim"] = edm.embedding_dim
        cert = spherical_certificate(edm)
        record.update(status=cert.status, unit_spherical=cert.unit_spherical)
        if cert.unit_spherical:
            record["delta_dim"] = embedding_dim_via_delta(edm, cert).dimension
    except Exception as exc:  # recorded: a verdict may be an exception
        record["error"] = type(exc).__name__
    if record["unit_spherical"]:
        n, r = edm.n, edm.embedding_dim
        record["simplex"] = outcome(lambda: f"{(c := certify_simplex(edm)).method} {c.is_simplex}")
        if 2 <= n - r <= r:
            record["kuperberg"] = outcome(lambda: kuperberg_decompose(edm).block_count)
        if n == 2 * r:
            record["crosspolytope"] = outcome(lambda: crosspolytope_recognize(edm).ok)
    if isinstance(edm, Edm):
        try:
            record["factor_dim"] = int(gram_factor(edm).config.shape[1])
        except Exception as exc:
            record["factor_error"] = type(exc).__name__
    return record


def outcome(read):
    """What `read()` returns, or the type of the exception it raises."""
    try:
        return read()
    except Exception as exc:
        return type(exc).__name__


def digest() -> dict:
    records = {}
    for name, D in inputs().items():
        order = np.random.default_rng(D.shape[0]).permutation(D.shape[0])
        for labels, M in (("given", D), ("relabelled", D[np.ix_(order, order)])):
            for c in SCALES:
                for profile, tol in sorted(PROFILES.items()):
                    records[f"{name} {labels} c={c:g} {profile}"] = verdict(c * M, tol)
    for k, M in enumerate(helpers.strict_noise_compositions()):
        records[f"strict-noise-{k:03d} given c=1 strict"] = verdict(M, PROFILES["strict"])
    return records


def load() -> dict:
    with open(RECORDING, encoding="utf-8") as fh:
        return json.load(fh)


def changes(old: dict, new: dict) -> list[str]:
    """One line per record that differs, is new or is gone."""
    return [f"{key}: {json.dumps(old.get(key), sort_keys=True)} -> {json.dumps(new.get(key), sort_keys=True)}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


def dump(records: dict) -> str:
    """One record per line, so a changed verdict is one changed line."""
    lines = (f" {json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}" for key in sorted(records))
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    before = load() if RECORDING.exists() else {}
    records = digest()
    for line in changes(before, records):
        print(line, file=sys.stderr)
    RECORDING.write_text(dump(records), encoding="utf-8")
    print(f"recorded {len(records)} verdicts in {RECORDING}", file=sys.stderr)
