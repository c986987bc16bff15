"""The three benchmark workloads: seeded CLI argument lists and the checks
applied to each invocation's output.

A workload is a list of ``Call`` objects. The benchmark hands each call's
``argv`` to ``wallachflow.cli.main`` and passes the exit code, stdout and
stderr to ``Call.check``, which returns ``None`` for a correct output or a
one-line description of the problem.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HALF = Fraction(1, 2)
REGIONS = frozenset({"O1", "O2", "O3", "OnOmega", "Outside"})
# Every midpoint of the scan grid lies in the open cube, where the grid of
# A12 finds only the three components and the surface itself.
SCAN_REGIONS = frozenset({"O1", "O2", "O3", "OnOmega"})
FLOW_STATUSES = frozenset({"converged", "left_domain", "max_time", "step_underflow"})
# A11 volume-drift bounds, by --three-d.
DRIFT_BOUND = {False: 1e-8, True: 1e-7}
SCAN_FIELDS = "a1,a2,a3,Q,Q1,gQ1,gQ2,gQ3,region"

# Reference triples of the three components, the fully degenerate point, the
# divisor cliff of the exact rational-root search and the two float triples
# where the Newton census misses a ray.
REFERENCE_TRIPLES = ("1/6,1/6,1/6", "7/15,7/15,7/15", "1/6,1/4,1/3")
CLIFF_TRIPLE = "13/97,17/89,23/101"
DEGENERATE_TRIPLE = "1/4,1/4,1/4"
MISSED_RAY_TRIPLES = ("0.30807717,0.1924551,0.49860776", "0.3521891,0.41073044,0.49093233")
FLOW_TRIPLES = ("1/6,1/6,1/6", "7/15,7/15,7/15", "1/6,1/4,1/3", "0.17,0.26,0.33")

# The general-position pool with denominators up to 60 is drawn from this
# fixed stream, not from --seed: its latency tail is so heavy that a seeded
# pool of this size moves p90 by 24-42 % from seed to seed (see README).
POOL_SEED = 20130502


@dataclass(frozen=True)
class Sizes:
    scan_n: int
    analyze_pool: int  # general-position triples, denominators <= 60, fixed
    analyze_seeded: int  # per case: two equal, sum 1/2, general (small denominators)
    flow_starts: int
    flow_tmax: str | None


FULL = Sizes(scan_n=9, analyze_pool=150, analyze_seeded=20, flow_starts=10, flow_tmax=None)
TINY = Sizes(scan_n=3, analyze_pool=4, analyze_seeded=1, flow_starts=1, flow_tmax="2")


@dataclass
class Call:
    argv: list[str]
    check: Callable[[int, str, str], str | None]
    items: int
    threads: int = 1


# --- checks ----------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-JSON token {token}")


def strict_json(text: str):
    """Parse JSON, refusing the NaN and Infinity tokens Python would accept."""
    return json.loads(text, parse_constant=_reject_constant)


def _parse_triple(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in text.split(","))


def check_analyze(triple: str) -> Callable[[int, str, str], str | None]:
    a = _parse_triple(triple)
    interior = all(0 < v < HALF for v in a)
    # On the edge (1/2, 1/2, c) the off-diagonal family degenerates and the
    # diagonal one needs 8c^2 >= 1, so for smaller c there is no positive ray.
    fewest = 0 if sorted(a)[1] == HALF and 8 * min(a) ** 2 < 1 else 1

    def check(rc: int, out: str, _err: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            payload = strict_json(out)
            count = len(payload["equilibria"])
            region = payload["surface"]["region"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad analyze JSON: {exc}"
        if not fewest <= count <= 4:
            return f"{count} equilibria for a triple in (0, 1/2]^3"
        if interior and region not in REGIONS:
            return f"unknown region {region!r}"
        if not interior and region is not None:
            return f"region {region!r} reported on the boundary of the cube"
        return None

    return check


def check_blowup(rc: int, out: str, _err: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        points = strict_json(out)["points"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad blowup JSON: {exc}"
    if len(points) != 3:
        return f"{len(points)} blow-up points, expected 3"
    return None


def check_scan(n: int) -> Callable[[int, str, str], str | None]:
    """Check one scan CSV; every scan of one run must also be byte-identical,
    which compares the --threads 1 and --threads 2 outputs."""
    first: list[str] = []

    def check(rc: int, out: str, _err: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if not first:
            first.append(out)
        elif out != first[0]:
            return "scan CSV differs between thread counts"
        lines = out.splitlines()
        if not lines or lines[0] != SCAN_FIELDS:
            return "bad scan CSV header"
        if len(lines) - 1 != n**3:
            return f"{len(lines) - 1} scan rows, expected {n**3}"
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 9:
                return f"bad scan row {line!r}"
            if fields[8] not in SCAN_REGIONS:
                return f"unknown interior region {fields[8]!r}"
            try:
                values = [float(v) for v in fields[:8]]
            except ValueError:
                return f"bad scan row {line!r}"
            if not all(math.isfinite(v) for v in values):
                return f"non-finite value in scan row {line!r}"
        return None

    return check


def check_flow(starts: int, three_d: bool) -> Callable[[int, str, str], str | None]:
    bound = DRIFT_BOUND[three_d]

    def check(rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            runs = strict_json(err)["runs"]
            statuses = [r["status"] for r in runs]
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad flow summary JSON: {exc}"
        if len(runs) != starts:
            return f"{len(runs)} runs, expected {starts}"
        unknown = set(statuses) - FLOW_STATUSES
        if unknown:
            return f"unknown flow status {sorted(unknown)}"
        lines = out.splitlines()
        # a batch of one run has no run column
        header = "run,t,x1,x2,x3,V" if starts > 1 else "t,x1,x2,x3,V"
        if not lines or lines[0] != header:
            return "bad flow CSV header"
        v0: dict[str, float] = {}
        for line in lines[1:]:
            fields = line.split(",")
            run = fields[0] if starts > 1 else "0"
            try:
                v = float(fields[-1])
            except ValueError:
                return f"bad flow row {line!r}"
            ref = v0.setdefault(run, v)
            if not abs(v - ref) <= bound * abs(ref):
                return f"volume drift beyond {bound:g} in run {run}"
        if len(v0) != starts:
            return f"{len(v0)} runs in the CSV, expected {starts}"
        return None

    return check


def flow_steps_accepted(err: str) -> int:
    """Accepted steps of one flow batch, from its summary JSON (each run's
    sample count includes the start point)."""
    return sum(r["steps"] - 1 for r in strict_json(err)["runs"])


# --- generators ------------------------------------------------------------


def _fraction(rng: random.Random, max_den: int) -> Fraction:
    q = rng.randint(2, max_den)
    return Fraction(rng.randint(1, q // 2), q)


def _two_equal(rng: random.Random, max_den: int) -> tuple[Fraction, ...]:
    b, c = _fraction(rng, max_den), _fraction(rng, max_den)
    while c == b:
        c = _fraction(rng, max_den)
    a = [b, b, c]
    rng.shuffle(a)
    return tuple(a)


def _sum_half(rng: random.Random, max_den: int) -> tuple[Fraction, ...]:
    while True:
        a1, a2 = _fraction(rng, max_den), _fraction(rng, max_den)
        a3 = HALF - a1 - a2
        if a3 > 0 and len({a1, a2, a3}) == 3:
            return (a1, a2, a3)


def _general(rng: random.Random, max_den: int) -> tuple[Fraction, ...]:
    while True:
        a = tuple(_fraction(rng, max_den) for _ in range(3))
        if len(set(a)) == 3 and sum(a) != HALF:
            return a


def _triple_text(a: tuple[Fraction, ...]) -> str:
    return ",".join(f"{v.numerator}/{v.denominator}" for v in a)


def scan_calls(seed: int, sizes: Sizes) -> list[Call]:
    """``scan --n N`` on the midpoint grid at ``--threads`` 1 and 2. The grid
    is fixed (it is the A12 grid); the seed only orders the two calls."""
    n = sizes.scan_n
    order = [1, 2]
    random.Random(seed).shuffle(order)
    check = check_scan(n)
    return [
        Call(["--threads", str(t), "scan", "--n", str(n)], check, n**3, threads=t)
        for t in order
    ]


def analyze_calls(seed: int, sizes: Sizes) -> list[Call]:
    """Single ``analyze`` invocations in a seeded order: the fixed items, the
    fixed general-position pool, and seeded triples of all three cases."""
    pool_rng = random.Random(POOL_SEED)
    triples = [_triple_text(_general(pool_rng, 60)) for _ in range(sizes.analyze_pool)]
    rng = random.Random(seed)
    for _ in range(sizes.analyze_seeded):
        triples.append(_triple_text(_two_equal(rng, 60)))
        triples.append(_triple_text(_sum_half(rng, 60)))
        triples.append(_triple_text(_general(rng, 12)))
    triples += [*REFERENCE_TRIPLES, CLIFF_TRIPLE, DEGENERATE_TRIPLE]
    groups = [
        [Call(["analyze", "--a", t, "--exact"], check_analyze(t), 1)] for t in triples
    ]
    groups += [[Call(["analyze", "--a", t], check_analyze(t), 1)] for t in MISSED_RAY_TRIPLES]
    # the blow-up report follows the analysis of its degenerate point
    degenerate = next(g for g in groups if g[0].argv[2] == DEGENERATE_TRIPLE)
    degenerate.append(Call(["blowup"], check_blowup, 1))
    rng.shuffle(groups)
    return [call for group in groups for call in group]


def flow_calls(seed: int, sizes: Sizes) -> list[Call]:
    """Batch ``flow --random-starts K`` for each flow triple, planar and 3D,
    each batch with its own seeded start points."""
    rng = random.Random(seed)
    calls = []
    for triple in FLOW_TRIPLES:
        for three_d in (False, True):
            argv = [
                "--threads", "1", "flow", "--a", triple,
                "--random-starts", str(sizes.flow_starts),
                "--seed", str(rng.randrange(2**31)),
            ]
            if sizes.flow_tmax is not None:
                argv += ["--tmax", sizes.flow_tmax]
            if three_d:
                argv.append("--three-d")
            calls.append(Call(argv, check_flow(sizes.flow_starts, three_d), sizes.flow_starts))
    return calls


WORKLOADS = {"scan": scan_calls, "analyze": analyze_calls, "flow": flow_calls}
