"""The BENCH recorder (``bench/record.py``): its work counters at the
benchmark's TINY sizes, which count calls and so are the same on every
host, and its comparison of two BENCH files."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


record = _load("bench_record", ROOT / "bench" / "record.py")
workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def _counters(census, real_roots, rational_root, linearize_at, field_components, field_evals=0, accepted=0,
              rejected=0):
    return {
        "equilibria.census": census,
        "_poly.real_roots": real_roots,
        "_poly._rational_root": rational_root,
        "linearize.linearize_at": linearize_at,
        "flow.field_components": field_components,
        "flow.field_evals": field_evals,
        "flow.steps_accepted": accepted,
        "flow.steps_rejected": rejected,
    }


@pytest.mark.parametrize("name, counters, replayed, skipped", [
    # solve_all labels the census rays without a closed-form solve, so
    # real_roots and _rational_root count only the census's own calls (its
    # rational roots at exact parameters and the rays of _on_line) and the
    # blowup report's. The --threads 2 scan runs in pool workers and is skipped; its float
    # censuses search no rational root
    ("scan", _counters(9, 0, 0, 24, 0), 1, 1),
    # field_components: the blowup report, which expands the field once
    ("analyze", _counters(14, 2, 22, 35, 1), 15, 0),
    # the float charts evaluate the field inline in their generated steps,
    # so no flow call reaches flow._field; field_evals counts them all
    ("flow", _counters(8, 0, 20, 0, 0, 2030, 337, 0), 8, 0),
])
def test_tiny_counters(name, counters, replayed, skipped):
    calls = [{"argv": c.argv, "threads": c.threads} for c in workloads.WORKLOADS[name](1, workloads.TINY)]
    got = record.replay(calls)
    assert got == {"counters": counters, "replayed_calls": replayed, "skipped_calls": skipped}


def test_compare_prints_ratios():
    old = {"commit": "a", "workloads": {"scan": {"metrics": {"pass_ref_s": 0.2}, "counters": {"x": 4, "y": 0}}}}
    new = {"commit": "b", "workloads": {"scan": {"metrics": {"pass_ref_s": 0.1}, "counters": {"x": 2, "y": 0}},
                                        "flow": {"metrics": {}, "counters": {}}}}
    lines = record.compare(old, new)
    assert lines[0] == "# a -> b"
    assert [line.split()[0] for line in lines[1:]] == ["scan.pass_ref_s", "scan.x", "scan.y"]
    assert [line.split()[-1] for line in lines[1:]] == ["x0.500", "x0.500", "x-"]


def test_record_keeps_the_median_of_three_runs(monkeypatch):
    # one run's setup_s is a single sample; the BENCH file keeps the median
    # of record.RUNS runs of each workload, and replays the calls once
    values = iter([0.3, 0.1, 0.2, 5.0, 4.0, 6.0])
    seen = []

    def run_benchmark(workload, seed, seconds):
        seen.append((workload, seed, seconds))
        v = next(values)
        summary = {"correct": v != 4.0, "attempted": 2, "failed": int(v == 6.0),
                   "metrics": {"setup_s": {"value": v}, "pass_ref_s": {"value": 10 * v}}}
        return summary, {"environment": {"python": "x"}, "calls": []}

    monkeypatch.setattr(record, "run_benchmark", run_benchmark)
    out = record.record(["scan", "flow"], 7, 0.5)
    assert seen == [("scan", 7, 0.5)] * 3 + [("flow", 7, 0.5)] * 3
    scan, flow = out["workloads"]["scan"], out["workloads"]["flow"]
    assert scan["runs"] == flow["runs"] == record.RUNS == 3
    assert scan["metrics"] == {"setup_s": 0.2, "pass_ref_s": 2.0}
    assert flow["metrics"] == {"setup_s": 5.0, "pass_ref_s": 50.0}
    assert (scan["correct"], scan["attempted"], scan["failed"]) == (True, 6, 0)
    assert (flow["correct"], flow["attempted"], flow["failed"]) == (False, 6, 1)
    assert scan["replayed_calls"] == scan["skipped_calls"] == 0
