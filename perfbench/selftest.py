"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits each metric named in BENCHMARK.json with
its unit, traced and untraced, and that a corrupted output (a NaN token, an
unknown region label) is counted as a failed invocation in ``fail_frac``.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import run
from workloads import TINY, check_analyze, strict_json


class Corrupting:
    """Stands in for ``wallachflow.cli``: runs each call through the real
    ``main`` but rewrites the output of the first call whose arguments
    contain ``needle``."""

    def __init__(self, cli, needle: str, stdout=None, stderr=None):
        self.cli, self.needle = cli, needle
        self.rewrite = {"out": stdout or (lambda s: s), "err": stderr or (lambda s: s)}
        self.done = False

    def main(self, argv):
        if self.done or self.needle not in argv:
            return self.cli.main(argv)
        self.done = True
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.cli.main(argv)
        sys.stdout.write(self.rewrite["out"](out.getvalue()))
        sys.stderr.write(self.rewrite["err"](err.getvalue()))
        return rc


def emitted_metrics(problems: list[str], spec: dict):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            name = workload["name"]
            out = io.StringIO()
            with redirect_stdout(out):
                rc = run.main(["--workload", name, "--size", "tiny", "--seconds", "0", "--trace", str(trace)])
            result = json.loads(out.getvalue().splitlines()[-1])
            if rc != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: rc {rc}, {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(wanted))} or units differ")


def _relabel_first_row(csv: str) -> str:
    lines = csv.split("\n")
    lines[1] = lines[1].rsplit(",", 1)[0] + ",O7"
    return "\n".join(lines)


def injected_failures(problems: list[str]):
    import wallachflow.cli as cli

    cases = [
        ("analyze", Corrupting(cli, "1/6,1/4,1/3", stdout=lambda s: s.replace('"Q1": ', '"Q1": NaN, "x": ', 1))),
        ("analyze", Corrupting(cli, "7/15,7/15,7/15", stdout=lambda s: re.sub(r'"region": "\w+"', '"region": "O4"', s))),
        ("scan", Corrupting(cli, "scan", stdout=_relabel_first_row)),
        ("flow", Corrupting(cli, "0.17,0.26,0.33", stderr=lambda s: s.replace('"status": "', '"status": "lost-', 1))),
    ]
    for name, fake in cases:
        with redirect_stdout(io.StringIO()):
            result = run.run_workload(fake, name, 1, 0, False, TINY, run.ROOT / ".perfbench")
        outcomes = [o for p in result["passes"] for o in p.outcomes]
        failed = sum(o.problem is not None for o in outcomes)
        frac = result["report"]["fail_frac"][0]
        if not fake.done or failed < 1 or frac != failed / len(outcomes):
            problems.append(f"{name}: injected bad output gave {failed} failed, fail_frac {frac}")


def checks(problems: list[str]):
    try:
        strict_json('{"x": NaN}')
        problems.append("strict_json accepted NaN")
    except ValueError:
        pass
    empty = '{"equilibria": [], "surface": {"region": null}}'
    if check_analyze("1/2,1/2,1/3")(0, empty, "") is not None:
        problems.append("an empty census on the edge (1/2, 1/2, 1/3) was rejected")
    if check_analyze("1/2,1/2,2/5")(0, empty, "") is None:
        problems.append("an empty census at (1/2, 1/2, 2/5) was accepted")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    problems: list[str] = []
    checks(problems)
    emitted_metrics(problems, spec)
    injected_failures(problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
