"""Host-speed probes: fixed work that does not call edmsphere, timed between ops.

On a shared virtual machine, other tenants slow this one by up to ~1.7x for
seconds to minutes at a time, and by different amounts for different kinds
of work: interpreter-bound Python (method calls, dict and set lookups),
LAPACK and interpreter start-up slow differently.  Within one 60-150 s run on
a 2-vCPU Xeon VM, medians of the same ops over consecutive stretches spread
by 0.07-0.36 (IQR/median); the same ops rescaled by a probe of their own
kind of work, timed between ops, spread by 0.03-0.07.

Each workload's probe does the kind of work its ops spend their time on.  An
op's latency is rescaled by `reference_s / probe`, where `probe` is the
median of the probes timed nearest to it: the rescaled latency is what the
op would take on a host where the probe takes `reference_s`.  Since the
probes do not call the program, a change to the program moves rescaled and
raw latencies alike.

A CLI op is mostly a new interpreter importing numpy, so its probe is a new
interpreter that imports numpy (~0.2 s; taken before every third op to keep
the op count up).  A bare interpreter start (`python -S -c pass`) is no
proxy: over one 150 s stretch it doubled the spread of rescaled CLI ops.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import run_child

# Probe times on the 2-vCPU Xeon VM the benchmark was written on, at its
# quieter moments, with single-threaded BLAS.  Only ratios are compared, so
# these fix the scale of the rescaled numbers, not their spread.
REFERENCE_S = {"python": 0.75e-3, "lapack": 1.6e-3, "import": 0.18}

# Per workload: the kinds of work its ops do, and the ops per probe.
PROBES = {
    "dense-certify": (("lapack",), 1),
    "graph-orthorep": (("python",), 1),
    "cli-batch": (("import",), 3),
    "set-up": (("import",), 1),  # a fresh `import edmsphere.cli` is most of set-up
}

SMOOTH = 4  # an op's probe is the median of the SMOOTH probes each side and its own


class _Adjacency:
    """Dict-of-sets graph, like the interpreter-bound loops in graphs and orthorep."""

    def __init__(self, n):
        self.adj = {i: {i + 1, i + 2} for i in range(n)}

    def has(self, i, j):
        return j in self.adj.get(i, ())


class HostProbe:
    """Times a fixed probe; `rescale` turns raw latencies into reference-host ones."""

    def __init__(self, kinds, every):
        self.kinds, self.every = tuple(kinds), every
        self.reference_s = sum(REFERENCE_S[k] for k in self.kinds)
        rng = np.random.default_rng(0x5EED)
        sym = rng.standard_normal((64, 64))
        self._sym = sym + sym.T
        self._square = rng.standard_normal((96, 96))
        self._graph = _Adjacency(300)
        self._members = set(range(0, 4000, 3))

    def _python(self):
        hits = 0
        for i in range(150):
            for j in range(i, i + 20):
                if self._graph.has(i, j):
                    hits += 1
        flags = {i: i in self._members for i in range(2000)}
        return hits + len(flags)

    def _lapack(self):
        for _ in range(2):
            np.linalg.eigh(self._sym)
            self._square @ self._square

    def _import(self):
        """A new interpreter that imports numpy and exits."""
        run_child([sys.executable, "-c", "import numpy"], check=True, stdout=subprocess.DEVNULL)

    def time_s(self):
        """Wall time of one probe."""
        t0 = time.perf_counter()
        if "import" in self.kinds:
            self._import()
        if "python" in self.kinds:
            self._python()
        if "lapack" in self.kinds:
            self._lapack()
        return time.perf_counter() - t0

    def rescale(self, latencies, probes):
        """Latencies (s) rescaled to the reference host.

        probes[i] was timed before op i, or is None if op i had no probe.
        """
        at = [i for i, p in enumerate(probes) if p is not None]
        timed = [probes[i] for i in at]
        out = []
        for i, lat in enumerate(latencies):
            k = max(0, bisect.bisect_right(at, i) - 1)  # the probe at or before op i
            local = statistics.median(timed[max(0, k - SMOOTH):k + SMOOTH + 1])
            out.append(lat * self.reference_s / local)
        return out
