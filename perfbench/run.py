"""wallachflow benchmark: CLI workloads run in-process through
``wallachflow.cli.main``, timed from outside.

    python3 perfbench/run.py --workload {scan,analyze,flow,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. The run measures ``setup_s`` first, then repeats whole passes over
the workload while another pass still fits in ``--seconds`` (at least one).
Reference probes run between invocations and, from a timer signal, during
``--threads 1`` invocations; the gated times are corrected by them for the
drift of the host's speed (see ``probe.py``), and the raw wall-clock times
are reported next to them. With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced ``--threads 1`` passes and prints the per-layer metrics and the
tracing overhead. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A record with the environment,
the exact CLI arguments and every timing goes to ``.perfbench/`` in the
checkout. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from probe import Sampler, burst, call_correction, timed_probe
from tracing import LAYER_UNITS, PROBE_SPAN, CensusCounter, Tracer, layer_metrics, median_metrics, span_table
from workloads import FULL, TINY, WORKLOADS, Call, flow_steps_accepted

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# The end-to-end metrics of BENCHMARK.json; times corrected by the probe.
E2E_UNITS = {
    "setup_s": "s",
    "pass_ref_s": "s",
    "items_per_ref_s": "1/s",
    "call_p50_ref_ms": "ms",
    "call_p90_ref_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed and recorded but not gated: the raw wall-clock twins, and the
# metrics that exist on some workloads only or read 0 at the seed.
REPORT_UNITS = {
    "setup_raw_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "probe_ms": "ms",
    "speedup_2p": "ratio",
    "fail_frac": "ratio",
    "census_disagree_frac": "ratio",
}
WARMUP_ARGV = ["analyze", "--a", "1/6,1/6,1/6", "--exact"]


@dataclass
class Outcome:
    seconds: float
    rc: int
    problem: str | None
    steps_accepted: int
    probes: list[float]


@dataclass
class Pass:
    """Outcomes of one pass; ``bursts[i]`` are the probes just before call
    ``i``, and one more burst follows the last call."""

    outcomes: list[Outcome] = field(default_factory=list)
    bursts: list[list[float]] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    def corrected(self, i: int) -> float:
        """Call ``i``'s time corrected by the probes during or near it."""
        factor = call_correction(self.bursts, i, self.outcomes[i].probes)
        return self.outcomes[i].seconds * factor

    @property
    def corrected_seconds(self) -> float:
        return sum(self.corrected(i) for i in range(len(self.outcomes)))

    @property
    def probes(self) -> list[float]:
        return [s for b in self.bursts for s in b] + [s for o in self.outcomes for s in o.probes]


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Wall seconds a fresh interpreter takes to import ``wallachflow.cli``,
    raw and corrected by probes the same interpreter runs right after the
    import, after one untimed import that fills the bytecode cache."""
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        "import wallachflow.cli\n"
        "t = time.perf_counter() - t\n"
        "from probe import burst, correction\n"
        "print(t, t * correction(burst(5)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    raw, corrected = [], []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            t, ref = proc.stdout.split()
            raw.append(float(t))
            corrected.append(float(ref))
    return raw, corrected


def invoke(cli, call: Call, probe_run=None) -> Outcome:
    """Run one call; with ``probe_run``, probe during it (never around a
    process pool, whose workers would compete with the probe)."""
    out, err = io.StringIO(), io.StringIO()
    sampler = Sampler(probe_run) if probe_run and call.threads == 1 else None
    start = perf_counter()
    with sampler or nullcontext():
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(call.argv)
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
    seconds = perf_counter() - start
    probes = []
    if sampler is not None:
        seconds -= sampler.stolen
        probes = sampler.samples
    problem = call.check(rc, out.getvalue(), err.getvalue())
    steps = flow_steps_accepted(err.getvalue()) if problem is None and "flow" in call.argv else 0
    return Outcome(seconds, rc, problem, steps, probes)


def run_pass(cli, calls: list[Call], tracer: Tracer | None = None) -> Pass:
    """Every call once, with probes before each call, during it and after
    the last call."""
    result = Pass()
    probe_run = timed_probe if tracer is None else tracer.wrap(PROBE_SPAN, timed_probe)
    for i, call in enumerate(calls):
        result.bursts.append(burst())
        if tracer is not None:
            tracer.invocation = i
        result.outcomes.append(invoke(cli, call, probe_run))
    result.bursts.append(burst())
    return result


def run_passes(seconds: float, one_pass) -> list:
    """Repeat ``one_pass`` while another pass still fits in ``seconds``."""
    results = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(one_pass())
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            return results


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_metrics(calls: list[Call], passes: list[Pass], setup, setup_ref, counter):
    t1 = [i for i, c in enumerate(calls) if c.threads == 1]
    t2 = [i for i, c in enumerate(calls) if c.threads == 2]
    items = sum(calls[i].items for i in t1)
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(o.problem is not None for p in passes for o in p.outcomes)

    def timings(corrected: bool):
        """Medians over passes of the pass time, items per second and the
        pass's p50 and p90 call latency, from call times corrected by the
        probes or raw. A pool call's workers run on both cores, where no
        probe can follow them, so the corrected pass time counts only the
        --threads 1 calls."""
        seconds = [
            [p.corrected(i) if corrected else o.seconds for i, o in enumerate(p.outcomes)]
            for p in passes
        ]
        counted = t1 if corrected else range(len(calls))
        latency = [[s[i] * 1e3 for i in t1] for s in seconds]
        n_calls = len(t1) * len(passes)
        return (
            (statistics.median(sum(s[i] for i in counted) for s in seconds), len(passes)),
            (statistics.median(items / sum(s[i] for i in t1) for s in seconds), len(passes)),
            (statistics.median(percentile(lat, 50) for lat in latency), n_calls),
            (statistics.median(percentile(lat, 90) for lat in latency), n_calls),
        )

    metrics = dict(zip(E2E_UNITS, [(statistics.median(setup_ref), len(setup_ref)), *timings(True)]))
    report = dict(zip(REPORT_UNITS, [(statistics.median(setup), len(setup)), *timings(False)]))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    probes = [s for p in passes for s in p.probes]
    report["probe_ms"] = (statistics.median(probes) * 1e3, len(probes))
    report["fail_frac"] = (failed / attempted, attempted)
    if t2:
        ratios = [sum(p.outcomes[i].seconds for i in t1) / sum(p.outcomes[i].seconds for i in t2) for p in passes]
        report["speedup_2p"] = (statistics.median(ratios), len(ratios))
    if counter.censuses:
        report["census_disagree_frac"] = (counter.disagreements / counter.censuses, counter.censuses)
    return metrics, report


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, sizes, out_dir: Path) -> dict:
    calls = WORKLOADS[name](seed, sizes)
    if trace:
        # spans from forked pool workers would be lost
        calls = [c for c in calls if c.threads == 1]
    else:
        setup, setup_ref = measure_setup(SETUP_REPEATS)
    counter = CensusCounter()
    counter.install()
    try:
        invoke(cli, Call(WARMUP_ARGV, lambda *_: None, 0))
        counter.censuses = counter.disagreements = 0
        if trace:
            result = traced_run(cli, name, seed, seconds, calls, out_dir)
        else:
            passes = run_passes(seconds, lambda: run_pass(cli, calls))
            metrics, report = timed_metrics(calls, passes, setup, setup_ref, counter)
            result = {"passes": passes, "metrics": metrics, "report": report, "units": {**E2E_UNITS, **REPORT_UNITS}}
    finally:
        counter.uninstall()
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), calls=calls)
    return result


def traced_run(cli, name, seed, seconds, calls, out_dir: Path) -> dict:
    tracer = Tracer()
    items = sum(c.items for c in calls)
    untraced, traced, layers = [], [], []
    tables = []

    def one_pass():
        untraced.append(run_pass(cli, calls))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(cli, calls, tracer))
        finally:
            tracer.uninstall()
        steps = sum(o.steps_accepted for o in traced[-1].outcomes)
        layers.append(layer_metrics(tracer.spans, tracer.sizes, items, steps))
        if not tables:
            tables.append(span_table(tracer.spans))
            tracer.write(out_dir / f"spans-{name}-seed{seed}.csv.gz")

    run_passes(seconds, one_pass)
    wall = statistics.median(p.corrected_seconds for p in untraced)
    metrics = {k: (v, len(layers)) for k, v in median_metrics(layers).items()}
    metrics["trace.wall_ref_s"] = (wall, len(untraced))
    metrics["trace.overhead_ref_s"] = (statistics.median(p.corrected_seconds for p in traced) - wall, len(traced))
    return {
        "passes": [p for pair in zip(untraced, traced) for p in pair],
        "metrics": metrics,
        "report": {},
        "units": LAYER_UNITS,
        "span_table": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]} for k, v in tables[0].items()},
        "untraced_functions": tracer.missing,
    }


# --- environment and output -------------------------------------------------


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "kernel": os.uname().release,
        "git_commit": git_commit(),
    }


def counts(result: dict) -> tuple[int, int]:
    outcomes = [o for p in result["passes"] for o in p.outcomes]
    return len(outcomes), sum(o.problem is not None for o in outcomes)


def write_record(result: dict, env: dict, sizes, out_dir: Path) -> Path:
    units = result["units"]
    record = {
        "workload": result["workload"],
        "seed": result["seed"],
        "seconds": result["seconds"],
        "trace": result["trace"],
        "sizes": asdict(sizes),
        "environment": env,
        "calls": [{"argv": c.argv, "items": c.items, "threads": c.threads} for c in result["calls"]],
        "passes": [
            {
                "seconds": [o.seconds for o in p.outcomes],
                "probe_bursts_s": p.bursts,
                "probes_during_s": [o.probes for o in p.outcomes],
                "problems": {str(i): o.problem for i, o in enumerate(p.outcomes) if o.problem is not None},
            }
            for p in result["passes"]
        ],
        "metrics": {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in {**result["metrics"], **result["report"]}.items()},
    }
    for key in ("span_table", "untraced_functions"):
        if key in result:
            record[key] = result[key]
    path = out_dir / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def print_table(result: dict, env: dict, record: Path):
    units = result["units"]
    attempted, failed = counts(result)
    print(
        f"# {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"passes {len(result['passes'])}  invocations {attempted}  failed {failed}"
    )
    print(
        f"# python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"cpu {env['cpu']}  commit {env['git_commit']}"
    )
    for k, (v, n) in {**result["metrics"], **result["report"]}.items():
        print(f"  {k:<44} {v:>14.6g} {units[k]:<6} n={n}")
    problems = {o.problem for p in result["passes"] for o in p.outcomes if o.problem is not None}
    for problem in sorted(problems):
        print(f"  FAILED: {problem}")
    print(f"# record: {record.relative_to(ROOT)}")


def summary(results: list[dict], prefix: bool) -> dict:
    attempted = failed = 0
    metrics = {}
    for r in results:
        a, f = counts(r)
        attempted, failed = attempted + a, failed + f
        for k, (v, _n) in r["metrics"].items():
            metrics[f"{r['workload']}.{k}" if prefix else k] = {"value": v, "unit": r["units"][k]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "wallachflow" / "cli.py").is_file():
        print(f"error: no wallachflow sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wallachflow.cli as cli

    sizes = FULL if args.size == "full" else TINY
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(cli, name, args.seed, args.seconds, bool(args.trace), sizes, out_dir)
        print_table(result, env, write_record(result, env, sizes, out_dir))
        results.append(result)
    print(json.dumps(summary(results, prefix=len(results) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
