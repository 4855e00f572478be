"""Command line front end.

Subcommands: validate, orthorep, decompose, gen, check-rankin.  Every run
prints exactly one JSON report to stdout (the single exception: `gen`
without --out prints the raw matrix text) and human diagnostics to stderr.
Exit codes: 0 success, 2 for rejected input or a failed precondition, 1 for
an internal fault, including results that would contradict theory.

One writer, `_dumps`, renders the report and the --out files: the bytes of
`json.dumps(..., indent=2)` with NaN and +-Inf as strings, written without
per-element Python for float arrays, which are joined row by row from one
`tolist()`.  A result written to --out is rendered once and indented into
the report.

Tolerances come from the profile named by the EDM_SPHERE_TOL_PROFILE
environment variable (default, strict, loose), overridable per run with
--tol-profile and per threshold with --tol-psd, --tol-rank, --tol-cluster,
--tol-sign, --tol-unit; an override that is negative or not finite is
rejected with exit 2.

A process enters through `run()`, the target of `python -m edmsphere.cli`
and of the `edmsphere` script.  It switches automatic collection off
(`gc.disable()`) before numpy or any layer loads: this module imports only
the stdlib and `errors` at its top, and everything else inside the
functions that use it.  The objects numpy's import and the run allocate
live until exit, so collecting them is pure cost (about 30 young
collections, 5-10 ms a run); memory stays bounded because the package
makes no cyclic garbage, and what argparse's parser leaves does not grow
with the work (tests/test_package.py).  It exits with `main()`'s code
after moving every object to the permanent generation (`gc.freeze()`), so
the interpreter's teardown collections, which run with the collector off
too, skip them.  `main()` builds the subparser its first argument names,
or all five when it names none, with help and usage errors byte-identical
to the full parser's (tests/golden/parser.json).  `main()` touches no
collector state and importing this module changes none, so tests and
library callers run it in process as before.
"""

from __future__ import annotations

import gc
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .errors import ConsistencyError, FormatError, PreconditionError

OK = 0
REJECTED = 2
FAULT = 1


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2)` of the report, strict JSON: NaN and +-Inf as their repr strings.

    Dicts (keys through str), lists and tuples are indented by 2; numpy
    scalars count as Python numbers.  A float array with finite entries is
    written row by row from one `tolist()`; any other array is written as
    its `tolist()`.  Other types raise TypeError, as in `json`.
    """
    out = []
    _emit(obj, "\n", out)
    return "".join(out)


class _Rendered(str):
    """The `_dumps` text of a value, written as that value at any indent."""


def _emit(obj, nl: str, out: list) -> None:
    """Append obj's JSON to out; nl is a newline and the indent of obj's line."""
    if isinstance(obj, _Rendered):
        out.append(obj.replace("\n", nl))  # strings in JSON text hold no raw newline
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, float):
        x = float(obj)
        out.append(float.__repr__(x) if math.isfinite(x) else _quote(repr(x)))
    elif isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in obj.items():
            out.append(sep + _quote(k) + ": ")
            _emit(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _emit(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        import numpy as np  # in sys.modules already: the tolerances of every report load it

        if isinstance(obj, (np.integer, np.floating)):
            _emit(int(obj) if isinstance(obj, np.integer) else float(obj), nl, out)
        elif not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        elif (obj.dtype.kind == "f" and obj.dtype.itemsize <= 8 and obj.ndim and obj.size
                and np.isfinite(obj).all()):
            out.append(_float_rows(obj.tolist(), obj.ndim, nl))
        else:
            _emit(obj.tolist(), nl, out)


def _float_rows(rows: list, depth: int, nl: str) -> str:
    """The JSON of nested lists of finite floats, `depth` levels deep, none empty."""
    inner = nl + "  "
    if depth == 1:
        body = map(float.__repr__, rows)
    else:
        body = (_float_rows(row, depth - 1, inner) for row in rows)
    return "[" + inner + ("," + inner).join(body) + nl + "]"


def _read_input(path: str, ctx) -> str:
    """Read an input file once; its report digest covers exactly the bytes parsed."""
    import hashlib  # OpenSSL's _hashlib loads only where a digest is made

    with open(path, "rb") as fh:
        data = fh.read()
    ctx["inputs"][path] = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8")


def _load_edm(path: str, tol, ctx):
    """Read, digest, parse and validate a matrix file: an Edm or an EdmRejection."""
    from . import matrixio
    from .edm import validate_edm

    return validate_edm(matrixio.parse_matrix(_read_input(path, ctx)), tol)


def _rejected(res, **extra):
    """Handler return for a matrix that is not an EDM."""
    print(f"rejected: {res.reason} ({res.detail})", file=sys.stderr)
    result = {"edm": False, "reason": res.reason, "detail": res.detail, **extra}
    return "rejected", result, {}, REJECTED, None


def _write_out(path, result, checks):
    """The --out file of orthorep and decompose: the result as indented JSON.

    Returns the result for the report: with --out, its JSON text, which the
    report then indents instead of rendering the result again.
    """
    if not path:
        return result
    text = _Rendered(_dumps(result))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    checks["out"] = path
    return text


def _resolve_tolerances(args) -> tuple:
    """(the run's Tolerances, its profile name): the profile, then each --tol-* override."""
    from .tolerances import _env_profile, from_profile

    profile = args.tol_profile or _env_profile()
    base = from_profile(profile)  # PreconditionError on unknown names
    overrides = {name: getattr(args, f"tol_{name}") for name in ("psd", "rank", "cluster", "sign", "unit")}
    for name, value in overrides.items():
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise PreconditionError(f"--tol-{name} must be finite and >= 0, got {value!r}")
    return base.with_overrides(**overrides), profile


def _fields(record, *names) -> dict:
    """The named fields of a result record, in that order: a section of the report."""
    return {name: getattr(record, name) for name in names}


def _spherical_dict(cert) -> dict:
    from .edm import SPHERICAL

    out = _fields(cert, "status", "unit_spherical", "residual", "etw", "radius", "w")
    if cert.status == SPHERICAL:
        out["note"] = "radius is the circumradius of the sphere through the points in their affine hull"
    return out


# each handler: (args, tol, ctx) -> (status, result, checks, exit_code, raw_stdout);
# it imports the layers it runs, so that a CLI process loads only those

def cmd_validate(args, tol, ctx):
    from dataclasses import asdict

    from .edm import EdmRejection, embedding_dim_via_delta, spherical_certificate

    res = _load_edm(args.matrix, tol, ctx)
    if isinstance(res, EdmRejection):
        return _rejected(res, witness_eigenvalue=res.witness_eigenvalue)
    cert = spherical_certificate(res)
    result = {
        "edm": True,
        "n": res.n,
        "embedding_dim": res.embedding_dim,
        "min_offdiagonal": res.min_offdiagonal,
        "spherical": _spherical_dict(cert),
    }
    checks = {}
    if cert.unit_spherical:
        checks["delta_dimension"] = asdict(embedding_dim_via_delta(res, cert))
    return "ok", result, checks, OK, None


def cmd_orthorep(args, tol, ctx):
    from .graphs import parse_graph
    from .orthorep import construct_orthorep, minimality_bound

    G = parse_graph(_read_input(args.graph, ctx))
    rep = construct_orthorep(G, tol)
    result = {
        "n": rep.n,
        "k": rep.k,
        "d": rep.d,
        "points": rep.points,
        "edm": rep.edm.dist2,
        "w": rep.w,
    }
    checks = {
        "unit_spherical": rep.unit_spherical,
        "unit_rows_max_dev": rep.unit_rows_max_dev,
        "sign_pattern": _fields(rep.sign_pattern, "ok", "min_edge_excess", "max_nonedge_dev"),
        "adjacency_lambda_max": list(rep.adjacency_lambda_max),
        "minimality": _fields(minimality_bound(rep), "m", "k", "dimension", "block_lambda_max", "bound_ok", "tight"),
        "note": rep.note,
    }
    return "ok", _write_out(args.out, result, checks), checks, OK, None


def cmd_decompose(args, tol, ctx):
    from .decomposition import kuperberg_decompose
    from .edm import EdmRejection

    res = _load_edm(args.matrix, tol, ctx)
    if isinstance(res, EdmRejection):
        return _rejected(res)
    dec = kuperberg_decompose(res)
    result = {
        "permutation": list(dec.permutation),
        "blocks": [
            {
                "indices": list(b.indices),
                "edm": b.edm.dist2,
                "simplex": b.certificate.is_simplex,
                "w": b.certificate.w,
                "origin": b.certificate.origin_position,
            }
            for b in dec.blocks
        ],
        "cross_check": dec.cross_check,
    }
    checks = {
        "n": dec.n,
        "r": dec.r,
        "block_count": dec.block_count,
        "subspace_dims": list(dec.subspace_dims),
        "isolated_assignment": list(dec.isolated_assignment),
        "cross_gram_max": dec.cross_gram_max,
        "block_lambda_max": [b.certificate.lambda_max for b in dec.blocks],
        "block_methods": [b.certificate.method for b in dec.blocks],
    }
    return "ok", _write_out(args.out, result, checks), checks, OK, None


# each gen kind: (the arguments it needs, its generator in the edm module, the fields of its header and report)
_GEN_KINDS = {
    "simplex": (("n",), lambda edm, a, tol: edm.gen_regular_simplex(a.n, a.gamma, tol), ("n", "gamma")),
    "unit-simplex": (("n",), lambda edm, a, tol: edm.gen_unit_simplex(a.n, tol), ("n",)),
    "crosspolytope": (("r",), lambda edm, a, tol: edm.gen_crosspolytope(a.r, tol), ("r",)),
    "random-sphere": (("n", "r"), lambda edm, a, tol: edm.gen_random_spherical(a.n, a.r, a.seed, tol)[0],
                      ("n", "r", "seed")),
}


def cmd_gen(args, tol, ctx):
    import hashlib

    from . import edm, matrixio

    kind = args.kind
    needs, generate, fields = _GEN_KINDS[kind]
    if any(getattr(args, name) is None for name in needs):
        raise PreconditionError(f"gen {kind} needs " + " and ".join(f"-{name}" for name in needs))
    if "seed" in fields and args.seed < 0:
        raise PreconditionError(f"--seed must be nonnegative, got {args.seed}")
    res = generate(edm, args, tol)
    params = {name: getattr(args, name) for name in fields}
    header = " ".join([f"gen {kind}"] + [f"{name}={value!r}" for name, value in params.items()])
    text = matrixio.format_matrix_text(res.dist2, comment=header)
    if not args.out:
        # documented exception: raw matrix text instead of a JSON report
        return "ok", None, None, OK, text
    data = text.encode("utf-8")
    with open(args.out, "wb") as fh:
        fh.write(data)
    cert = edm.spherical_certificate(res)
    result = {
        "kind": kind,
        **params,
        "order": res.n,
        "embedding_dim": res.embedding_dim,
        "min_offdiagonal": res.min_offdiagonal,
        "radius": cert.radius,
        "unit_spherical": cert.unit_spherical,
        "out": args.out,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    return "ok", result, {}, OK, None


def cmd_check_rankin(args, tol, ctx):
    if (args.matrix is None) == (args.sample is None):
        raise PreconditionError("give either a matrix file or --sample R, not both")
    if args.matrix is not None:
        return _check_rankin_file(args, tol, ctx)
    return _check_rankin_sample(args, tol)


def _check_rankin_file(args, tol, ctx):
    from .decomposition import crosspolytope_recognize, rankin_codimension2_check
    from .edm import EdmRejection

    res = _load_edm(args.matrix, tol, ctx)
    if isinstance(res, EdmRejection):
        return _rejected(res)
    n, r = res.n, res.embedding_dim
    result = {"mode": "file", "n": n, "r": r}
    code = OK
    status = "ok"
    applicable = False
    if n == r + 2:
        applicable = True
        rep = rankin_codimension2_check(res)
        result["codimension2"] = _fields(rep, "ok", "min_offdiag", "witness", "message")
        if not rep.ok:
            status, code = "inconsistent", FAULT
            print(rep.message, file=sys.stderr)
    if n == 2 * r:
        applicable = True
        rec = crosspolytope_recognize(res)
        result["crosspolytope"] = _fields(rec, "ok", "permutation", "max_deviation", "reason")
        if not rec.ok and code == OK:
            status, code = "declined", REJECTED
            print(f"not a crosspolytope: {rec.reason}", file=sys.stderr)
    if not applicable:
        raise PreconditionError(
            f"no extremal case applies: n = {n}, r = {r} is neither r + 2 nor 2r"
        )
    return status, result, {}, code, None


def _check_rankin_sample(args, tol):
    from .decomposition import _sample_codimension2

    r = args.sample
    if r < 2:
        raise PreconditionError(f"--sample needs r >= 2, got {r}")
    if args.trials < 1:
        raise PreconditionError(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise PreconditionError(f"--seed must be nonnegative, got {args.seed}")
    per_trial = []
    failures = []
    for t, rep in enumerate(_sample_codimension2(r, args.trials, args.seed, tol)):
        if isinstance(rep, int):
            # rank-degenerate sample; astronomically unlikely, still a result
            failures.append({"trial": t, "reason": f"embedding_dim {rep} != {r}"})
            per_trial.append(None)
            continue
        per_trial.append(rep.min_offdiag)
        if not rep.ok:
            failures.append({"trial": t, "reason": rep.message})
    finite = [v for v in per_trial if v is not None]
    result = {
        "mode": "sample",
        "r": r,
        "n": r + 2,
        "trials": args.trials,
        "seed": args.seed,
        "all_ok": not failures,
        "failures": failures,
        "max_min_offdiag": max(finite) if finite else None,
        "min_offdiag_per_trial": per_trial,
    }
    if failures:
        print(f"{len(failures)} of {args.trials} trials inconsistent", file=sys.stderr)
        return "inconsistent", result, {}, FAULT, None
    return "ok", result, {}, OK, None


# each subcommand: its help line, then its arguments as (name or flag, add_argument keywords);
# its handler is cmd_<name>, looked up in this module when the parser is built, so that a
# wrapper bound over it there (bench/tracer.py's spans) is the one that runs
_MATRIX_HELP = "matrix file (text or JSON)"
_COMMANDS = {
    "validate": ("certify a matrix as an EDM and test sphericity", ("matrix", dict(help=_MATRIX_HELP))),
    "orthorep": ("minimum-dimension orthonormal representation of a graph", ("graph", dict(help="edge list file")),
                 ("--out", dict(help="also write the representation JSON here"))),
    "decompose": ("split a unit spherical EDM into orthogonal simplex blocks", ("matrix", dict(help=_MATRIX_HELP)),
                  ("--out", dict(help="also write the decomposition JSON here"))),
    "gen": ("generate a canonical EDM", ("kind", dict(choices=list(_GEN_KINDS))),
            ("-n", dict(type=int, help="number of points")), ("-r", dict(type=int, help="dimension")),
            ("--gamma", dict(type=float, default=1.0, help="squared edge length (simplex)")),
            ("--seed", dict(type=int, default=0, help="RNG seed (random-sphere)")),
            ("--out", dict(help="write matrix text here and report JSON on stdout; "
                                "without it the matrix text itself goes to stdout"))),
    "check-rankin": ("extremal checks at n = r + 2 and n = 2r", ("matrix", dict(nargs="?", help=_MATRIX_HELP)),
                     ("--sample", dict(type=int, metavar="R",
                                       help="instead of a file: sample random unit sphere configs at n = R + 2")),
                     ("--trials", dict(type=int, default=100, help="sample mode trial count")),
                     ("--seed", dict(type=int, default=0, help="sample mode master seed"))),
}


def build_parser(command: str | None = None):
    """The argparse parser with the subparser of `command` only, or with all five when it names none.

    A lone subparser is listed in the top-level usage line as all five are,
    so every message argparse prints for a run reads as with the full parser.
    """
    import argparse

    from .tolerances import TOL_PROFILE_ENV

    tolp = argparse.ArgumentParser(add_help=False)
    g = tolp.add_argument_group("tolerances")
    g.add_argument("--tol-profile", choices=["default", "strict", "loose"], default=None,
                   help=f"threshold preset (default: ${TOL_PROFILE_ENV} or 'default')")
    g.add_argument("--tol-psd", type=float, default=None, help="PSD slack, relative to scale")
    g.add_argument("--tol-rank", type=float, default=None, help="rank cut, relative to scale")
    g.add_argument("--tol-cluster", type=float, default=None, help="eigenvalue clustering band")
    g.add_argument("--tol-sign", type=float, default=None, help="distance-vs-2 separation band")
    g.add_argument("--tol-unit", type=float, default=None, help="unit circumradius band")

    p = argparse.ArgumentParser(
        prog="edmsphere",
        description="Spherical Euclidean distance matrix toolkit",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    sub = p.add_subparsers(dest="command", required=True,
                           metavar=None if len(names) > 1 else "{" + ",".join(_COMMANDS) + "}")
    for name in names:
        help_line, *arguments = _COMMANDS[name]
        ps = sub.add_parser(name, parents=[tolp], help=help_line)
        for flag, keywords in arguments:
            ps.add_argument(flag, **keywords)
        ps.set_defaults(handler=globals()["cmd_" + name.replace("-", "_")])
    return p


def main(argv=None) -> int:
    from dataclasses import asdict

    echo = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(echo[0] if echo else None).parse_args(echo)
    t0 = time.perf_counter()
    ctx = {"inputs": {}}
    profile = "default"
    tol_dict = None  # stays None when the tolerances themselves are invalid
    raw = None
    try:
        tol, profile = _resolve_tolerances(args)
        tol_dict = asdict(tol)
        status, result, checks, code, raw = args.handler(args, tol, ctx)
    except FormatError as exc:
        status, result, checks, code = "precondition-failed", {"error": str(exc)}, {}, REJECTED
        print(f"input format error: {exc}", file=sys.stderr)
    except (PreconditionError, FileNotFoundError, IsADirectoryError, PermissionError, UnicodeDecodeError) as exc:
        status, result, checks, code = "precondition-failed", {"error": str(exc)}, {}, REJECTED
        print(f"precondition failed: {exc}", file=sys.stderr)
    except ConsistencyError as exc:
        status, result, checks, code = "inconsistent", {"error": str(exc)}, {}, FAULT
        print(f"internal inconsistency: {exc}", file=sys.stderr)
    except Exception as exc:  # any other fault, a plain ValueError included
        status, result, checks, code = "error", {"error": f"{type(exc).__name__}: {exc}"}, {}, FAULT
        import traceback

        traceback.print_exc()
    if raw is not None:
        sys.stdout.write(raw)
        return code
    report = {
        "tool": "edmsphere",
        "version": __version__,
        "command": echo,
        "inputs": ctx["inputs"],
        "profile": profile,
        "tolerances": tol_dict,
        "status": status,
        "result": result,
        "checks": checks,
        "elapsed_seconds": round(time.perf_counter() - t0, 6),
    }
    print(_dumps(report))
    return code


def run():
    """Process entry of `python -m edmsphere.cli` and the `edmsphere` script: exit with `main()`'s code.

    The collector is off for the whole run: numpy and the layers load after
    `gc.disable()`, and the process frees its memory by exiting.  Objects
    frozen before the interpreter finalizes are skipped by its teardown
    collections (`gc.disable()` does not stop those), and the OS reclaims
    their memory at exit.  The `finally` covers argparse's own SystemExit
    (--help, --version, usage errors) too.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
