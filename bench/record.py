"""Record a BENCH file: the benchmark's end-to-end metrics and work counters.

    python3 bench/record.py [--workload {scan,analyze,flow,all}] [--seed N]
                            [--seconds S] [--compare BENCH_prev.json]
    python3 bench/record.py --compare BENCH_old.json BENCH_new.json

Run from anywhere; the checkout is the parent of this file's directory. For
each workload it runs ``perfbench/run.py --trace 0`` unchanged, as a
subprocess, ``RUNS`` (3) times, and reads the record each run writes to
``.perfbench/<workload>-seed<N>-trace0.json``. Each end-to-end metric is
stored as the median of the runs: a single run's ``setup_s`` is one sample,
and a ratio of two such samples is mostly noise. It then replays the
recorded ``--threads 1`` argument lists once in-process, through
``wallachflow.cli.main``, with counting wrappers on the census
(``equilibria._census``, counted as ``equilibria.census``),
``_poly.real_roots``, ``_poly._rational_root`` (the exact rational-root
refinements), ``linearize.linearize_at`` and the field evaluations through
``flow._field`` (counted as ``flow.field_components``; the float charts of
``integrate`` evaluate the field inline and are not counted there), and
sums ``field_evals``, ``steps_accepted`` and ``steps_rejected`` from the
``flow`` summaries, which count every evaluation of the flow runs. Calls at other thread counts
run their work in pool workers, out of the wrappers' sight, and are
skipped. The counters do not depend on the host.

The result goes to ``BENCH_<commit>.json`` in the checkout, where
``<commit>`` is the short hash of the checked-out commit,
with ``-dirty`` when ``src/`` differs from it. It holds the environment of
the run (``PYTHONDONTWRITEBYTECODE`` included), the number of runs, the
median end-to-end metrics, the operations attempted and failed over all
runs, and the counters. ``--compare`` prints the ratios new/old of every metric and
counter, against the new recording or between two given files.

Only the standard library is used here; the benchmark itself needs what the
package needs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "analyze", "flow")
# benchmark runs per workload; each end-to-end metric keeps their median
RUNS = 3
# counter name -> (module, function) whose calls it counts during the replay;
# a census runs in ``equilibria._census``, which ``census`` and ``solve_all``
# both call, and a field evaluation outside the flow runs in ``flow._field``,
# which ``field_components`` and ``normalization_term`` call (the float
# charts of ``integrate`` splice the field's text into their steps instead)
COUNTED = {
    "equilibria.census": ("equilibria", "_census"),
    "_poly.real_roots": ("_poly", "real_roots"),
    "_poly._rational_root": ("_poly", "_rational_root"),
    "linearize.linearize_at": ("linearize", "linearize_at"),
    "flow.field_components": ("flow", "_field"),
}
FLOW_SUMS = ("field_evals", "steps_accepted", "steps_rejected")


def short_commit() -> str:
    """The short hash of the checked-out commit, ``-dirty`` when ``src/`` has
    uncommitted changes, or ``nogit`` outside a repository."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "--short=7", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "nogit"
    return head + ("-dirty" if dirty else "")


def run_benchmark(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Run ``perfbench/run.py`` for one workload; its summary line and record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    summary = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text())
    return summary, record


@contextlib.contextmanager
def counting(counts: Counter):
    """Count calls to the ``COUNTED`` functions, under every name that the
    loaded ``wallachflow`` modules bind them to."""
    import wallachflow.cli  # noqa: F401  (loads the modules the CLI uses)

    modules = [m for name, m in list(sys.modules.items()) if name.startswith("wallachflow") and m]
    patched = []
    for key, (owner, name) in COUNTED.items():
        original = getattr(sys.modules[f"wallachflow.{owner}"], name)

        def counted(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, counted)
                    patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


def replay(calls: list[dict]) -> dict:
    """Replay the ``--threads 1`` calls once; the counters, and how many
    calls were replayed and skipped."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from wallachflow import cli

    counts: Counter = Counter(dict.fromkeys(COUNTED, 0))
    counts.update({f"flow.{key}": 0 for key in FLOW_SUMS})
    replayed = 0
    with counting(counts):
        for call in calls:
            if call["threads"] != 1:
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(call["argv"]))
            if code != 0:
                raise RuntimeError(f"{call['argv']} exited {code}: {err.getvalue()}")
            if "flow" in call["argv"]:
                for run in json.loads(err.getvalue())["runs"]:
                    counts.update({f"flow.{key}": run[key] for key in FLOW_SUMS})
            replayed += 1
    return {"counters": dict(counts), "replayed_calls": replayed, "skipped_calls": len(calls) - replayed}


def record(workloads: list[str], seed: int, seconds: float) -> dict:
    out = {
        "commit": short_commit(),
        "seed": seed,
        "seconds": seconds,
        "environment": None,
        "workloads": {},
    }
    for name in workloads:
        runs = [run_benchmark(name, seed, seconds) for _ in range(RUNS)]
        summaries = [summary for summary, _rec in runs]
        rec = runs[0][1]
        if out["environment"] is None:
            out["environment"] = {
                **rec["environment"],
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            }
        out["workloads"][name] = {
            "correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "runs": RUNS,
            "metrics": {
                k: statistics.median(s["metrics"][k]["value"] for s in summaries)
                for k in summaries[0]["metrics"]
            },
            **replay(rec["calls"]),
        }
    return out


def compare(old: dict, new: dict) -> list[str]:
    """One line per metric and counter present in both: old, new, new/old."""
    lines = [f"# {old['commit']} -> {new['commit']}"]
    for name, w_new in new["workloads"].items():
        w_old = old["workloads"].get(name)
        if w_old is None:
            continue
        for group in ("metrics", "counters"):
            for key, v_new in w_new[group].items():
                v_old = w_old[group].get(key)
                if v_old is None:
                    continue
                ratio = f"{v_new / v_old:.3f}" if v_old else "-"
                lines.append(f"  {name}.{key:<32} {v_old:>14.6g} {v_new:>14.6g}  x{ratio}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--compare", nargs="+", metavar="BENCH", help="BENCH_prev.json, or two BENCH files")
    args = parser.parse_args(argv)
    if args.compare and len(args.compare) > 2:
        parser.error("--compare takes one or two BENCH files")

    if args.compare and len(args.compare) == 2:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
    else:
        new = record(list(WORKLOADS) if args.workload == "all" else [args.workload], args.seed, args.seconds)
        path = ROOT / f"BENCH_{new['commit']}.json"
        path.write_text(json.dumps(new, indent=1) + "\n")
        print(f"# wrote {path}")
        old = json.loads(Path(args.compare[0]).read_text()) if args.compare else None
    if old is not None:
        print("\n".join(compare(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
