"""Spans and counters recorded from outside the program.

``Tracer`` rebinds public functions of the ``wallachflow`` modules to
wrappers that record one span per call: name, start, end, parent span and
CLI invocation id. ``from .x import f`` copies the binding, so every
``wallachflow.*`` namespace that holds the function is rebound. Spans stay in
memory; ``layer_metrics`` turns them into the per-layer metrics.

``CensusCounter`` is the one wrapper that also runs untraced: it counts the
censuses of ``equilibria.solve_all`` whose closed-form and Newton routes
disagree, which ``solve_all`` reports only as a ``CensusWarning``.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import warnings
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped by the tracer. A function a later version
# of the program no longer has is skipped, and its metrics read 0.
TRACED = (
    ("cli", "main"),
    ("equilibria", "solve_all"),
    ("equilibria", "newton_census"),
    ("equilibria", "solve_two_equal"),
    ("equilibria", "solve_sum_half"),
    ("equilibria", "solve_general"),
    ("_poly", "rational_roots"),
    ("_poly", "real_roots"),
    ("linearize", "linearize_at"),
    ("linearize", "classify"),
    ("surfaces", "q_eval"),
    ("surfaces", "grad_q"),
    ("surfaces", "q1_eval"),
    ("surfaces", "component_classify"),
    ("flow", "vector_field_2d"),
    ("flow", "vector_field_3d"),
    ("flow", "phi"),
    ("integrate", "dopri_step"),
    ("integrate", "integrate_flow"),
    ("integrate", "integrate_flow_3d"),
    ("blowup", "blowup_linearizations"),
)
# Calls whose result length is summed, for rays and roots per census.
SIZED = frozenset({"equilibria.solve_all", "equilibria.newton_census"})
FIELD_SPANS = frozenset({"flow.vector_field_2d", "flow.vector_field_3d"})
# the name under which the benchmark's speed probes are recorded
PROBE_SPAN = "probe"
CLOSED_FORM = ("equilibria.solve_two_equal", "equilibria.solve_sum_half", "equilibria.solve_general")

# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "equilibria.newton_census.calls": "count",
    "equilibria.newton_census.self_s": "s",
    "equilibria.newton_census.roots_per_call": "count",
    "equilibria.closed_form.self_s": "s",
    "equilibria.case.two_equal": "count",
    "equilibria.case.sum_half": "count",
    "equilibria.case.general": "count",
    "equilibria.rays_per_census": "count",
    "equilibria.census_calls_per_item": "ratio",
    "equilibria.solve_all.self_s": "s",
    "poly.rational_roots.calls": "count",
    "poly.rational_roots.self_s": "s",
    "poly.real_roots.self_s": "s",
    "linearize.linearize_at.calls": "count",
    "linearize.linearize_at.self_s": "s",
    "linearize.classify.self_s": "s",
    "surfaces.q_eval.self_s": "s",
    "surfaces.grad_q.self_s": "s",
    "surfaces.q1_eval.self_s": "s",
    "surfaces.component_classify.self_s": "s",
    "flow.field_evals": "count",
    "flow.field_eval.us": "us",
    "flow.phi.calls": "count",
    "integrate.steps_attempted": "count",
    "integrate.steps_accepted": "count",
    "integrate.steps_rejected": "count",
    "integrate.field_evals_per_accepted_step": "ratio",
    "integrate.dopri_step.self_s": "s",
    "integrate.driver.self_s": "s",
    "blowup.blowup_linearizations.s": "s",
    "cli.self_s": "s",
    "trace.wall_ref_s": "s",
    "trace.overhead_ref_s": "s",
}


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every ``wallachflow.*`` name bound to ``original`` at
    ``replacement``; return what ``_restore`` needs to undo it."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "wallachflow" or mod_name.startswith("wallachflow.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def _restore(undo):
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class CensusCounter:
    """Counts ``solve_all`` calls and those that warned of a disagreement."""

    def __init__(self):
        self.censuses = 0
        self.disagreements = 0
        self._undo: list = []

    def install(self):
        module = sys.modules["wallachflow.equilibria"]
        original = module.solve_all
        category = module.CensusWarning

        @functools.wraps(original)
        def solve_all(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", category)
                result = original(*args, **kwargs)
            self.censuses += 1
            if any(issubclass(w.category, category) and "disagree" in str(w.message) for w in caught):
                self.disagreements += 1
            return result

        self._undo = _rebind(original, solve_all)

    def uninstall(self):
        _restore(self._undo)
        self._undo = []


class Tracer:
    """In-memory spans ``(name, start, end, parent, invocation)``."""

    def __init__(self):
        self.spans: list = []
        self.sizes: dict[str, int] = defaultdict(int)
        self.invocation = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        spans, stack, sizes = self.spans, self._stack, self.sizes
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.invocation)
            if sized:
                sizes[name] += len(result)
            return result

        return wrapper

    def install(self):
        for module_name, fn_name in TRACED:
            module = sys.modules.get(f"wallachflow.{module_name}")
            fn = getattr(module, fn_name, None)
            name = f"{module_name.lstrip('_')}.{fn_name}"
            if fn is None:
                self.missing.append(name)
                continue
            self._undo += _rebind(fn, self.wrap(name, fn))

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    def reset(self):
        self.spans.clear()
        self.sizes.clear()

    def write(self, path):
        """Write the spans as gzipped CSV, times in microseconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_us,end_us,parent,invocation\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, inv) in enumerate(self.spans):
                fh.write(f"{i},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent},{inv}\n")


def span_table(spans) -> dict[str, list[float]]:
    """name -> [calls, inclusive seconds, self seconds]."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _inv in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _parent, _inv) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return table


def layer_metrics(spans, sizes, items: int, steps_accepted: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, without the ``trace.*`` pair."""
    table = span_table(spans)

    def calls(name):
        return table[name][0] if name in table else 0

    def self_s(*names):
        return sum(table[n][2] for n in names if n in table)

    def ratio(num, den):
        return num / den if den else 0.0

    # probes that interrupted a span, taken out of its inclusive time
    probed = [0.0] * len(spans)
    for name, start, end, parent, _inv in spans:
        while name == PROBE_SPAN and parent >= 0:
            probed[parent] += end - start
            parent = spans[parent][3]

    def inclusive(i):
        return spans[i][2] - spans[i][1] - probed[i]

    field = [
        inclusive(i)
        for i, (name, _start, _end, parent, _inv) in enumerate(spans)
        if name in FIELD_SPANS and (parent < 0 or spans[parent][0] not in FIELD_SPANS)
    ]
    attempted = calls("integrate.dopri_step")
    censuses = calls("equilibria.solve_all")
    newton = calls("equilibria.newton_census")
    return {
        "equilibria.newton_census.calls": newton,
        "equilibria.newton_census.self_s": self_s("equilibria.newton_census"),
        "equilibria.newton_census.roots_per_call": ratio(sizes.get("equilibria.newton_census", 0), newton),
        "equilibria.closed_form.self_s": self_s(*CLOSED_FORM),
        "equilibria.case.two_equal": calls("equilibria.solve_two_equal"),
        "equilibria.case.sum_half": calls("equilibria.solve_sum_half"),
        "equilibria.case.general": calls("equilibria.solve_general"),
        "equilibria.rays_per_census": ratio(sizes.get("equilibria.solve_all", 0), censuses),
        "equilibria.census_calls_per_item": ratio(censuses, items),
        "equilibria.solve_all.self_s": self_s("equilibria.solve_all"),
        "poly.rational_roots.calls": calls("poly.rational_roots"),
        "poly.rational_roots.self_s": self_s("poly.rational_roots"),
        "poly.real_roots.self_s": self_s("poly.real_roots"),
        "linearize.linearize_at.calls": calls("linearize.linearize_at"),
        "linearize.linearize_at.self_s": self_s("linearize.linearize_at"),
        "linearize.classify.self_s": self_s("linearize.classify"),
        "surfaces.q_eval.self_s": self_s("surfaces.q_eval"),
        "surfaces.grad_q.self_s": self_s("surfaces.grad_q"),
        "surfaces.q1_eval.self_s": self_s("surfaces.q1_eval"),
        "surfaces.component_classify.self_s": self_s("surfaces.component_classify"),
        "flow.field_evals": len(field),
        "flow.field_eval.us": ratio(sum(field), len(field)) * 1e6,
        "flow.phi.calls": calls("flow.phi"),
        "integrate.steps_attempted": attempted,
        "integrate.steps_accepted": steps_accepted,
        "integrate.steps_rejected": attempted - steps_accepted,
        "integrate.field_evals_per_accepted_step": ratio(len(field), steps_accepted),
        "integrate.dopri_step.self_s": self_s("integrate.dopri_step"),
        "integrate.driver.self_s": self_s("integrate.integrate_flow", "integrate.integrate_flow_3d"),
        "blowup.blowup_linearizations.s": sum(
            inclusive(i) for i, span in enumerate(spans) if span[0] == "blowup.blowup_linearizations"
        ),
        "cli.self_s": self_s("cli.main"),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
