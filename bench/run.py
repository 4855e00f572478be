"""edmsphere benchmark: three closed-loop workloads, one client, one process at a time.

Run from the repository root:

    python3 bench/run.py --workload dense-certify --seed 1 --seconds 35 --trace 0

Workloads: dense-certify, graph-orthorep, cli-batch (see
bench/workloads.py for what each op does and why).  The run builds its
inputs from --seed (set-up), then runs ops in a closed loop for --seconds,
checking every verdict against the structure planted in its input.

--trace 0 reports the end-to-end metrics.  Op latencies, and so ops_per_s,
op_p50_ms and op_p90_ms, are rescaled to a reference host speed by a probe
timed before each op (bench/hostspeed.py); setup_s likewise.  The raw wall
times are in the detailed report.  --trace 1 reports per-layer
metrics from a traced run (spans around every public function of each
`edmsphere` module), the tracer's self-check counts, the ROADMAP baseline
table and the tracing overhead.  A detailed JSON report precedes the last
line of stdout, which is the one-line result object.

BLAS and OpenMP run one thread unless the environment says otherwise: one
client, one process, no thread spinning against the op on a 2-vCPU host.

Seed HELD_OUT_SEED below is never used while writing a change: use it to
confirm a claim on inputs the change was not tuned on.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS; CLI children inherit it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
HELD_OUT_SEED = 90817
SETUP_REPS = 7
MIN_OPS = 100  # so that at least 10 samples lie beyond op_p90_ms


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["dense-certify", "graph-orthorep", "cli-batch"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args()


# ------------------------------------------------------------ machine facts

def read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_facts(np):
    cpuinfo = read_text("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = read_text(d + "/level").strip(), read_text(d + "/type").strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read_text(d + "/size").strip()
    mem_kb = next((int(line.split()[1]) for line in read_text("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except Exception as exc:  # numpy without the dict form of show_config
        blas = {"error": repr(exc)}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_l2": caches.get("L2"),
        "cache_l3": caches.get("L3"),
        "ram_mb": mem_kb // 1024 if mem_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def input_sizes(ops):
    """Distinct matrix orders with computed bytes per n x n float64 matrix.

    gen_random_spherical also allocates an n x n x r difference tensor.
    """
    sizes = []
    for n in sorted({op.n for op in ops}):
        row = {"n": n, "bytes_per_matrix_computed": 8 * n * n}
        r = next((op.payload["gen"][1] for op in ops if op.n == n and "gen" in op.payload), None)
        if r is not None:
            row["gen_tensor_bytes_computed"] = 8 * n * n * r
        sizes.append(row)
    return sizes


# ------------------------------------------------------------------ set-up

def input_digest(ops, workdir):
    h = hashlib.sha256()
    for op in ops:
        h.update(op.op_id.encode())
        for key in sorted(op.payload):
            val = op.payload[key]
            if hasattr(val, "tobytes"):
                h.update(val.tobytes())
            elif key != "G":  # the Graph is built from "edges", hashed instead
                h.update(json.dumps(val).replace(workdir, "<work>").encode())
        for path in sorted(op.files):
            h.update(path.replace(workdir, "<work>").encode())
            h.update(op.files[path])
    return h.hexdigest()


def set_up(workload, seed, workdir, runner, es, W, inprocess):
    """Generate and write the inputs, then warm up; returns the op list."""
    build = W.WORKLOADS[workload][0]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = build(seed, workdir)
    for op in ops:
        for path, data in op.files.items():
            with open(path, "wb") as fh:
                fh.write(data)
    if inprocess:
        seen = set()
        for op in sorted(ops, key=lambda o: o.n):
            if op.kind not in seen:
                seen.add(op.kind)
                runner(es, op)
    else:
        W.run_child([sys.executable, "-m", "edmsphere.cli", "--version"], check=True,
                    env=runner.env, cwd=ROOT, stdout=subprocess.DEVNULL)
    return ops


# ----------------------------------------------------------------- measure

class Window:
    """One closed-loop measurement: latencies, verdicts and failures."""

    def __init__(self):
        self.latencies = []
        self.verdicts = {}  # op id -> verdict of its first run
        self.failures = []
        self.op_ids = {}  # op sequence number -> op id
        self.probes = []  # host probe time before each op, None if not probed

    def merge(self, other):
        self.latencies += other.latencies
        for op_id, verdict in other.verdicts.items():
            self.verdicts.setdefault(op_id, verdict)
        self.failures += other.failures
        self.op_ids.update(other.op_ids)
        self.probes += other.probes


class Loop:
    """Closed loop, one client: the next op starts when the previous one ends.

    Ops cycle through the input list in a seeded order.  Garbage left by one
    op is collected before the next starts, outside the timed window (where
    the host probe also runs), and set-up objects are frozen out of the
    collector's scans.
    """

    def __init__(self, ops, order, runner, es, workload, seed, probe):
        self.ops, self.order, self.runner, self.es = ops, list(order), runner, es
        self.workload, self.seed, self.probe = workload, seed, probe

    def measure(self, seconds, min_ops, tracer=None, seq0=0):
        """Run ops until `seconds` have passed, `min_ops` ran and every input ran once."""
        w = Window()
        start = time.perf_counter()
        gc.collect()
        gc.freeze()
        i = 0
        while True:
            op = self.ops[self.order[i % len(self.order)]]
            seq = seq0 + i
            w.op_ids[seq] = op.op_id
            gc.collect()
            w.probes.append(self.probe.time_s() if i % self.probe.every == 0 else None)
            if tracer is not None:
                tracer.op = seq
            t0 = time.perf_counter()
            try:
                verdict, error = self.runner(self.es, op), None
            except Exception as exc:  # an op that raises is a failed op, recorded below
                verdict, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op = None
                if hasattr(self.runner, "last_report_bytes"):
                    tracer.counts[seq]["cli.report_bytes"] += self.runner.last_report_bytes
            w.latencies.append(t1 - t0)
            if error is None and verdict != op.expected:
                error = f"verdict {json.dumps(verdict)[:300]} != planted {json.dumps(op.expected)[:300]}"
            if error is not None:
                w.failures.append({"workload": self.workload, "op": op.op_id, "seed": self.seed,
                                   "reason": error})
                print(f"FAILED {self.workload} {op.op_id} seed={self.seed}: {error}", file=sys.stderr)
            w.verdicts.setdefault(op.op_id, verdict if verdict is not None else {"error": error})
            i += 1
            if i >= min_ops and i >= len(self.order) and time.perf_counter() - start >= seconds:
                break
        gc.unfreeze()
        return w


def latency_by_class(lat, op_ids):
    """Median latency per (kind, n) class, and the classes the two percentiles fall in."""
    classes = [op_id.split(":", 1)[1] for op_id in op_ids.values()]
    by = {}
    for c, x in zip(classes, lat):
        by.setdefault(c, []).append(x)
    ranked = sorted(zip(lat, classes))
    return {
        "classes": {c: {"count": len(v), "median_ms": statistics.median(v) * 1e3}
                    for c, v in sorted(by.items(), key=lambda kv: statistics.median(kv[1]))},
        "p50_class": ranked[len(ranked) // 2][1],
        "p90_class": ranked[int(len(ranked) * 0.9)][1],
    }


def verdict_digest(verdicts):
    return hashlib.sha256(json.dumps(sorted(verdicts.items()), sort_keys=True).encode()).hexdigest()


def failed_ratio(w, inputs):
    """Share of the inputs that had a failed op, smoothed: (failing + 1) / (inputs + 1).

    Every input runs at least once per window, so the base is the fixed
    input count, not the speed-dependent op count; never 0, so a regression
    is a share of a positive median, and it moves only when ops fail.
    """
    failing = {f["op"] for f in w.failures}
    return (len(failing) + 1) / (inputs + 1)


# ------------------------------------------------------ traced-run extras

def self_check(es, cli, W, T):
    """Tracer counts on four fixed calls, against the counts measured at the seed commit."""
    import numpy as np

    tr = T.Tracer().install()
    try:
        tr.op = "validate"
        edm = es.validate_edm(W.crosspolytope(200))
        tr.op = "cross"
        es.crosspolytope_recognize(edm)
        tr.op = "path"
        path = es.Graph.from_edges(800, [(i, i + 1) for i in range(1, 800)])
        es.verify_sign_pattern(2.0 * (np.ones((800, 800)) - np.eye(800)), path)
        tr.op = "rankin"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["check-rankin", "--sample", "4", "--trials", "100"])
    finally:
        tr.uninstall()
    c = tr.per_op()
    got = {
        "validate_edm n=400 crosspolytope: eigh calls": c["validate"]["spectral.eigh.calls"],
        "validate_edm n=400 crosspolytope: eigh distinct_ratio":
            c["validate"]["spectral.eigh.distinct"] / max(1, c["validate"]["spectral.eigh.calls"]),
        "crosspolytope_recognize r=200: eigh calls (5r+3)": c["cross"]["spectral.eigh.calls"],
        "verify_sign_pattern 800-node path: has_edge calls (n(n-1)/2)": c["path"]["graphs.has_edge.calls"],
        "check-rankin --sample 4 --trials 100: eigh calls (3 per trial)": c["rankin"]["spectral.eigh.calls"],
    }
    at_seed = [2, 0.5, 1003, 319600, 300]
    return {k: {"measured": v, "at_seed_commit": e, "match": v == e}
            for (k, v), e in zip(got.items(), at_seed)}


def baseline_table(es, cli, W, T):
    """The ROADMAP Baseline calls, each timed once (untraced) with its eigh count."""
    rows = []

    def timed(call, n, fn):
        with T.count_eigh() as calls:
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        rows.append({"call": call, "n": n, "wall_ms": dt * 1e3, "eigh_calls": calls["eigh"]})
        return out

    for n in (50, 200, 800):
        D = W.crosspolytope(n // 2)
        edm = timed("validate_edm (crosspolytope)", n, lambda: es.validate_edm(D))
        timed("spherical_certificate", n, lambda: es.spherical_certificate(edm))
        timed("kuperberg_decompose (crosspolytope)", n, lambda: es.kuperberg_decompose(edm))
        timed("crosspolytope_recognize", n, lambda: es.crosspolytope_recognize(edm))
        path = es.Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])
        rep = timed("construct_orthorep (path graph)", n, lambda: es.construct_orthorep(path))
        timed("verify_sign_pattern (path graph)", n, lambda: es.verify_sign_pattern(rep.edm, path))
        trials = str(n * 5 // 2)
        with contextlib.redirect_stdout(io.StringIO()):
            timed(f"CLI check-rankin --sample 4 --trials {trials} (in-process)", n,
                  lambda: cli.main(["check-rankin", "--sample", "4", "--trials", trials]))
    return rows


def fresh_import_s(env, W):
    """Wall time of a fresh interpreter that imports edmsphere.cli."""
    t0 = time.perf_counter()
    W.run_child([sys.executable, "-c", "import edmsphere.cli"], check=True, env=env, cwd=ROOT)
    return time.perf_counter() - t0


# -------------------------------------------------------------------- main

def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "edmsphere", "__init__.py")):
        print(f"edmsphere sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import numpy as np

    import edmsphere as es
    import edmsphere.cli as cli
    import hostspeed as H  # bench/hostspeed.py; the script directory is first on sys.path
    import tracer as T
    import workloads as W

    import_s = time.perf_counter() - T_START
    workload, seed, seconds = args.workload, args.seed, args.seconds
    workdir = os.path.join(WORK, f"{workload}-s{seed}-t{args.trace}-{os.getpid()}")
    # cli-batch runs one subprocess per op; its traced run calls main() in-process.
    if workload == "cli-batch":
        runner = W.CliRunner(ROOT, inprocess=bool(args.trace))
    else:
        runner = W.WORKLOADS[workload][1]
    inprocess = workload != "cli-batch" or bool(args.trace)

    try:
        # Each set-up rep imports in a fresh interpreter (an import cannot be
        # repeated in-process), then generates, writes and warms up.  A host
        # probe, timed before each rep, rescales the median rep.
        env = W.CliRunner(ROOT, inprocess=False).env
        setup_probe = H.HostProbe(*H.PROBES["set-up"])
        imports, reps, probes, digests = [], [], [], []
        for _ in range(SETUP_REPS):
            ops = None
            gc.collect()
            probes.append(setup_probe.time_s())
            t0 = time.perf_counter()
            imports.append(fresh_import_s(env, W))
            ops = set_up(workload, seed, workdir, runner, es, W, inprocess)
            reps.append(time.perf_counter() - t0)
            digests.append(input_digest(ops, workdir))
        machine = machine_facts(np)
        report = {
            "benchmark": "edmsphere", "workload": workload, "seed": seed,
            "held_out_seed": HELD_OUT_SEED, "trace": args.trace, "seconds": seconds,
            "machine": machine,
            "inputs": {"digest": digests[0], "deterministic": len(set(digests)) == 1,
                       "ops_per_cycle": len(ops), "sizes": input_sizes(ops),
                       "cache_l3": machine["cache_l3"]},
            "setup": {"import_s_in_process": import_s, "fresh_import_s": imports, "reps_s": reps,
                      "probe_s": probes, "probe_reference_s": setup_probe.reference_s},
            "failures": [],
        }
        if len(set(digests)) != 1:
            report["failures"].append({"workload": workload, "op": "set-up", "seed": seed,
                                       "reason": "the same seed gave different inputs"})
        loop = Loop(ops, np.random.default_rng([seed, 0x0DE5]).permutation(len(ops)),
                    runner, es, workload, seed, H.HostProbe(*H.PROBES[workload]))
        if args.trace:
            metrics, attempted = traced_run(loop, seconds, report, es, cli, W, T)
        else:
            metrics, attempted = untraced_run(loop, seconds, report)
            metrics["setup_s"] = (statistics.median(reps) * setup_probe.reference_s
                                  / statistics.median(probes), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = report["failures"]
    print(json.dumps(report, indent=1, default=float))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def untraced_run(loop, seconds, report):
    """End-to-end metrics (all but setup_s) from one closed-loop window,
    on latencies rescaled to the reference host speed."""
    w = loop.measure(seconds, MIN_OPS)
    report["failures"] += w.failures
    raw = w.latencies
    lat = loop.probe.rescale(raw, w.probes)
    p90 = statistics.quantiles(lat, n=10)[8]
    report["ops"] = {"attempted": len(lat), "failed": len(w.failures), "busy_s": sum(raw),
                     "samples_beyond_p90": sum(x > p90 for x in lat),
                     "inputs": len(loop.ops), "inputs_failing": len({f["op"] for f in w.failures})}
    report["raw_wall"] = {"ops_per_s": len(raw) / sum(raw),
                          "op_p50_ms": statistics.median(raw) * 1e3,
                          "op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3}
    report["latency_by_class"] = latency_by_class(lat, w.op_ids)
    probes = [p for p in w.probes if p is not None]
    report["host_probe_ms"] = {"kinds": loop.probe.kinds, "every": loop.probe.every,
                               "reference": loop.probe.reference_s * 1e3,
                               "median": statistics.median(probes) * 1e3,
                               "quartiles": [q * 1e3 for q in statistics.quantiles(probes, n=4)]}
    report["verdict_digest"] = verdict_digest(w.verdicts)
    who = resource.RUSAGE_CHILDREN if loop.workload == "cli-batch" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "failed_ratio": (failed_ratio(w, len(loop.ops)), "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, len(lat)


def traced_run(loop, seconds, report, es, cli, W, T):
    """Per-layer metrics: self-checks and baseline table first, then untraced
    and traced cycles over the same inputs until `seconds` have passed."""
    t0 = time.perf_counter()
    report["self_check"] = self_check(es, cli, W, T)
    report["baseline_table"] = baseline_table(es, cli, W, T)
    # Untraced and traced cycles alternate, so drifts in machine speed hit
    # both sides of trace.overhead_ratio alike.
    # A pair that would end past `seconds` is not started (one pair at least).
    plain, tw, tracer = Window(), Window(), T.Tracer()
    cycle, pair_s = len(loop.order), 0.0
    while not plain.latencies or time.perf_counter() - t0 + pair_s <= seconds:
        t_pair = time.perf_counter()
        plain.merge(loop.measure(0.0, cycle, seq0=len(plain.latencies) + len(tw.latencies)))
        with tracer:
            tw.merge(loop.measure(0.0, cycle, tracer=tracer,
                                  seq0=len(plain.latencies) + len(tw.latencies)))
        pair_s = time.perf_counter() - t_pair
    report["failures"] += plain.failures + tw.failures
    per_op = tracer.per_op()
    totals = sum((per_op[s] for s in tw.op_ids), start=Counter())
    traced_ops = len(tw.latencies)
    layer = T.layer_metrics(totals, traced_ops)
    layer["cli.process_start_s"] = statistics.median(report["setup"]["fresh_import_s"])
    layer["trace.overhead_ratio"] = (traced_ops / sum(tw.latencies)) / (
        len(plain.latencies) / sum(plain.latencies))
    units = {name: unit for name, unit, *_ in T.LAYER_METRICS}
    digest_plain, digest_traced = verdict_digest(plain.verdicts), verdict_digest(tw.verdicts)
    if digest_plain != digest_traced:
        report["failures"].append({"workload": loop.workload, "op": "digest", "seed": loop.seed,
                                   "reason": "traced and untraced verdict digests differ"})
    report["verdict_digest"] = digest_plain
    report["verdict_digest_traced"] = digest_traced
    report["ops"] = {"untraced": len(plain.latencies), "traced": traced_ops,
                     "failed": len(plain.failures) + len(tw.failures)}
    report["layer_map"] = [{"metric": m, "unit": u, "better": b, "moves": mv, "workload": wl}
                           for m, u, b, mv, wl in T.LAYER_METRICS]
    report["traced_window_totals"] = dict(sorted(totals.items()))
    spans_path = os.path.join(WORK, f"spans-{loop.workload}-s{loop.seed}.jsonl")
    tracer.write_spans(spans_path, tw.op_ids)
    report["spans_file"] = os.path.relpath(spans_path, ROOT)
    return {k: (v, units[k]) for k, v in layer.items()}, len(plain.latencies) + traced_ops


if __name__ == "__main__":
    sys.exit(main())
