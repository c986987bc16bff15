"""Command-line interface.

Commands: ``analyze`` (equilibria, linearization and surface data for one
parameter triple), ``flow`` (trajectory integration, single start or seeded
batch), ``scan`` (region-classified parameter grid), ``surface`` (Q/Q1 slice
along a coordinate plane), ``blowup`` (the degenerate-point resolution
report), ``verify`` (the reproduction suite).

Exit codes: 0 success, 1 verification failure, 2 usage error (including an
``--out`` path that cannot be written), 3 domain error, 141 (128 + SIGPIPE)
when the reader of stdout goes away, as in ``| head``.

Importing this module loads ``core``, ``_poly`` and ``flow``, which every
command uses, and ``equilibria``, which every command but ``blowup`` uses;
each handler imports the rest of what it runs: ``analyze``, ``scan`` and
``surface`` load ``linearize`` and ``surfaces``, ``flow`` loads
``integrate``, ``blowup`` loads ``blowup``, and ``verify`` loads ``verify``
with all of those.  ``json`` loads in the handlers that write JSON:
``analyze``, ``flow`` (its run summary), ``blowup``, and ``scan`` and
``verify`` under ``--json``.  No command imports numpy: ``flow
--random-starts`` draws numpy's seeded PCG64 starts through the pure-Python
``_pcg64``, and ``verify`` draws from ``random.Random``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from functools import partial

from . import equilibria as eq_mod
from .core import Parameters, Scalar, is_exact, parse_scalar, scalar_to_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BROKEN_PIPE = 141


def _json_value(x):
    if is_exact(x):
        return scalar_to_json(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return float(x)


class UsageError(ValueError):
    """Malformed command-line input (exit code 2)."""


def _parse_values(text: str, count: int, what: str, exact: bool = False) -> list[Scalar]:
    """Parse ``count`` comma-separated scalars for the option ``what``, with
    ``exact`` a decimal literal as the decimal fraction it writes;
    malformed, ``x/0`` or non-finite values, and under ``exact`` an exponent
    beyond 400 (``1e-100000000`` would build ``10**100000000``; every float
    is within ``10**±400``), raise ``UsageError``."""
    parts = [t for t in text.split(",") if t.strip()]
    if len(parts) != count:
        raise UsageError(f"{what} expects {count} comma-separated values")
    try:
        if exact and max(abs(int(t.lower().partition("e")[2] or 0)) for t in parts) > 400:
            raise ValueError("exponent beyond 400")
        values = [Fraction(t) if exact else parse_scalar(t) for t in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from None
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise UsageError(f"{what} values must be finite")
    return values


def _parse_triple(text: str, exact: bool = False) -> Parameters:
    """Parse ``a1,a2,a3`` (exactly, with ``exact``): malformed or non-finite
    values raise ``UsageError``, a triple outside the flow's domain
    (including a zero parameter) raises a plain ``ValueError``, and nonzero
    floats whose product underflows to 0.0 raise ``OverflowError``."""
    p = Parameters(*_parse_values(text, 3, "--a", exact))
    if not p.reduced_ok:
        if all(p.a):
            raise OverflowError("a1*a2*a3 underflows to 0.0")
        raise ValueError("a1*a2*a3 = 0: every parameter must be nonzero")
    return p


def _thread_count(requested: int | None, cpus: int | None) -> int:
    """Pool size from ``--threads``, else 1, clamped to ``[1, cpus]``."""
    return max(1, min(requested or 1, cpus or 1))


def _map(fn, items, threads: int) -> list:
    """``fn`` over ``items``, through a process pool when ``threads > 1``."""
    if threads <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _json_text(payload) -> str:
    """``payload`` as indented JSON text: ``json`` loads here, in the
    commands that write JSON, and not at import."""
    import json

    return json.dumps(payload, indent=2)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


# --- analyze ----------------------------------------------------------------


def _analyze_payload(p: Parameters) -> dict:
    from . import linearize as lin_mod
    from .surfaces import classify_region, q1_eval, q_and_grad

    rays = eq_mod.solve_all(p)
    entries = []
    notes: list[str] = []
    for ray in rays:
        lin = lin_mod.linearize_at(p, ray.rep)
        cls = lin_mod.classify(lin)
        unit = eq_mod.normalize_unit_volume(p, ray)
        entries.append({
            "x3_one": [_json_value(v) for v in ray.rep.x],
            "unit_volume": [float(v) for v in unit.x],
            "family": ray.family_tag.value,
            "multiplicity": ray.multiplicity,
            "rho": _json_value(lin.rho),
            "delta": _json_value(lin.delta),
            "sigma": _json_value(lin.sigma),
            "eigenvalues": [_json_value(lin.lambda1), _json_value(lin.lambda2)],
            "classification": cls.kind.value,
            "near_degenerate": cls.near_degenerate,
        })
        if cls.kind is lin_mod.PointKind.DEGENERATE:
            notes.append(  # `blowup` resolves the point of 1/4, 1/4, 1/4 only
                "degenerate equilibrium: run the `blowup` command for the "
                "resolved local phase portrait"
                if all(v == 0.25 for v in p.a)
                else "degenerate equilibrium: the type of this ray is not resolved"
            )
    q, grad = q_and_grad(p)
    region = classify_region(p, q) if p.interior else None
    return {
        "parameters": {
            **p.to_json(),
            "exact": p.exact,
            "reduced_ok": p.reduced_ok,
            "wallach_range": p.wallach_range,
        },
        "surface": {
            "Q": _json_value(q),
            "Q1": _json_value(q1_eval(p)),
            "grad_Q": [_json_value(v) for v in grad],
            "region": region.value if region is not None else None,
        },
        "equilibria": entries,
        "notes": notes,
    }


def cmd_analyze(args) -> int:
    p = _parse_triple(args.a, args.exact)
    _write_text(args.out, _json_text(_analyze_payload(p)))
    return EXIT_OK


# --- flow ------------------------------------------------------------------


def cmd_flow(args) -> int:
    from .integrate import check_rtol, integrate_flow

    p = _parse_triple(args.a)
    if not (math.isfinite(args.tmax) and args.tmax > 0):
        raise UsageError("--tmax must be finite and positive")
    if args.random_starts < 0:
        raise UsageError("--random-starts must be non-negative")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    try:
        check_rtol(args.rtol)
    except ValueError as exc:
        raise UsageError(f"--rtol: {exc}") from None

    dim = 3 if args.three_d else 2
    starts: list[tuple[float, ...]] = []
    if args.x0 is not None:
        vals = [float(v) for v in _parse_values(args.x0, dim, "--x0")]
        if not all(v > 0 for v in vals):
            raise UsageError(f"--x0 needs {dim} positive finite values")
        starts.append(tuple(vals))
    if args.random_starts:
        from ._pcg64 import Uniform

        # numpy's default_rng(seed).uniform draws, through math.exp: the same
        # draws give the same starts on every host
        rng = Uniform(args.seed)
        for _ in range(args.random_starts):
            starts.append(tuple(map(math.exp, rng.draw(-0.5, 0.5, dim))))
    if not starts:
        raise UsageError("provide --x0 and/or --random-starts")

    # the length of each start picks the planar or the 3D flow
    run_one = partial(
        integrate_flow, p, t_max=args.tmax, rel_tol=args.rtol, equilibria=eq_mod.solve_all(p)
    )
    trajectories = _map(run_one, starts, args.threads)

    single = len(trajectories) == 1
    lines = ["t,x1,x2,x3,V" if single else "run,t,x1,x2,x3,V"]
    summary = []
    for run, traj in enumerate(trajectories):
        # one format per row: "%.17g" prints each value as f"{value:.17g}" does
        fmt = ("" if single else f"{run},") + "%.17g,%.17g,%.17g,%.17g,%.17g"
        lines.extend([fmt % sample for sample in traj.samples])
        summary.append({
            "run": run,
            "x0": list(starts[run]),
            "status": traj.status,
            "steps": len(traj.samples),
            "steps_accepted": traj.steps_accepted,
            "steps_rejected": traj.steps_rejected,
            "field_evals": traj.field_evals,
            "max_volume_drift": traj.max_volume_drift,
            "equilibrium_id": traj.equilibrium_id,
            "exit_face": traj.exit_face,
        })

    # the last newline is joined in: text + "\n" would copy the whole CSV
    # once more at the command's peak memory
    _write_text(args.out, "\n".join([*lines, ""]))
    # the summary goes to stderr when the CSV takes stdout
    print(_json_text({"runs": summary}), file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK


# --- scan and surface --------------------------------------------------------


def cmd_scan(args) -> int:
    from .surfaces import cube_grid, scan

    if args.n < 2:
        raise UsageError("--n must be at least 2")
    # serial at any --threads: the pool's start-up and pickling cost more
    # than the labels it would spread over the workers
    rows = [
        (*s.params.a, float(s.Q), float(s.Q1), *(float(g) for g in s.gradQ), s.region.value)
        for s in scan(cube_grid(args.n))
    ]

    fields = ("a1", "a2", "a3", "Q", "Q1", "gQ1", "gQ2", "gQ3", "region")
    if args.json:
        _write_text(args.out, _json_text([dict(zip(fields, row)) for row in rows]))
        return EXIT_OK
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join([f"{v:.17g}" for v in row[:8]] + [row[8]]))
    _write_text(args.out, "\n".join([*lines, ""]))
    return EXIT_OK


def cmd_surface(args) -> int:
    from .surfaces import q1_eval, q_eval

    try:
        index, value_text = args.fix.split("=")
        fixed = {"a1": 0, "a2": 1, "a3": 2}[index.strip()]
    except (ValueError, KeyError):
        raise UsageError("--fix must look like a1=1/2") from None
    (value,) = _parse_values(value_text, 1, "--fix")
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    lo, hi = args.lo, args.hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("--lo and --hi must be finite")
    axis = [lo + (hi - lo) * (k + 0.5) / args.n for k in range(args.n)]
    lines = ["a1,a2,a3,Q,Q1"]
    for u in axis:
        for v in axis:
            coords = [u, v]
            coords.insert(fixed, float(value))
            try:
                p = Parameters(*coords)
            except ValueError:
                continue
            lines.append(
                ",".join(
                    [f"{c:.17g}" for c in coords]
                    + [f"{float(q_eval(p)):.17g}", f"{float(q1_eval(p)):.17g}"]
                )
            )
    _write_text(args.out, "\n".join([*lines, ""]))
    return EXIT_OK


# --- blowup and verify -------------------------------------------------------


def cmd_blowup(args) -> int:
    from .blowup import blowup_linearizations

    report = blowup_linearizations()
    _write_text(args.out, _json_text(report.to_json()))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all()
    if args.json:
        payload = [
            {
                "name": r.name,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ]
        _write_text(args.out, _json_text(payload))
    else:
        width = max(len(r.name) for r in results)
        lines = []
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.name:<{width}}  {flag}  {r.seconds:7.2f}s  {r.detail}")
        _write_text(args.out, "\n".join([*lines, ""]))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallachflow",
        description="Analysis of the volume-normalized curvature flow on "
        "three-parameter homogeneous metrics",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="worker pool size of batch flow (default: 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="equilibria and surface data for one triple")
    pa.add_argument("--a", required=True, help="parameters, e.g. 1/6,1/6,1/6 or 0.2,0.3,0.4")
    pa.add_argument("--exact", action="store_true",
                    help="read decimals exactly: 0.17 is 17/100, not the nearest float")
    pa.add_argument("--out", default=None)

    pf = sub.add_parser("flow", help="integrate trajectories")
    pf.add_argument("--a", required=True)
    pf.add_argument("--x0", default=None, help="start point, e.g. 1.05,0.95")
    pf.add_argument("--random-starts", type=int, default=0)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--tmax", type=float, default=50.0)
    pf.add_argument("--rtol", type=float, default=1e-10)
    pf.add_argument("--three-d", action="store_true", help="integrate the unreduced 3D flow")
    pf.add_argument("--out", default=None, help="trajectory CSV path")

    ps = sub.add_parser("scan", help="classified grid scan of the open parameter cube")
    ps.add_argument("--n", type=int, required=True, help="points per axis")
    ps.add_argument("--out", default=None)
    ps.add_argument("--json", action="store_true", help="emit JSON instead of CSV")

    pu = sub.add_parser("surface", help="Q/Q1 slice along a coordinate plane")
    pu.add_argument("--fix", required=True, help="fixed coordinate, e.g. a1=1/2")
    pu.add_argument("--n", type=int, default=50)
    pu.add_argument("--lo", type=float, default=0.01)
    pu.add_argument("--hi", type=float, default=0.49)
    pu.add_argument("--out", default=None)

    pb = sub.add_parser("blowup", help="degenerate-point resolution report")
    pb.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run the reproduction suite")
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # the handlers read the resolved pool size
        args.threads = _thread_count(args.threads, os.cpu_count())
        handler = {
            "analyze": cmd_analyze,
            "flow": cmd_flow,
            "scan": cmd_scan,
            "surface": cmd_surface,
            "blowup": cmd_blowup,
            "verify": cmd_verify,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()
        return code
    except (ValueError, OverflowError) as exc:
        reason = exc if isinstance(exc, ValueError) else "a value left the float range"
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DOMAIN
    except BrokenPipeError:
        # stdout's reader is gone: point stdout's descriptor at devnull, so
        # that the interpreter's final flush of the rest does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # a stdout without a descriptor has nothing left to flush
        finally:
            os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
