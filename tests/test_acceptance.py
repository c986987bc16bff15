"""Acceptance gate: every reproduction check must pass at its stated
tolerance.  One line is printed per criterion (visible with ``pytest -s``)."""

import pytest

from wallachflow import verify
from wallachflow.verify import CHECKS, run_all, run_check

_RESULTS = {}


def _result_for(name, func):
    if name not in _RESULTS:
        _RESULTS[name] = run_check(name, func)
    return _RESULTS[name]


@pytest.mark.parametrize("name, check", CHECKS, ids=[func.__name__ for _, func in CHECKS])
def test_acceptance_criterion(name, check):
    result = _result_for(name, check)
    print(f"{result.name}: {'PASS' if result.passed else 'FAIL'} - {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_trace_surface_construction_is_pinned():
    # A8 builds its surface points from the census and the exact root of Q1
    # along a3 in each bracket; the off-surface draws follow on the same
    # generator, so the number of attempts fixes their minimum
    result = _result_for("A8", verify.check_trace_surface)
    assert result.passed, result.detail
    assert "; 20 zero-trace constructions land on the surface" in result.detail
    assert result.detail.endswith("; off-surface min |rho| = 3.47e-02")


def test_component_classification_detail_is_reproducible():
    # A12's detail holds no wall time (CheckResult.seconds carries it), so
    # two calls of the same code give the same problems and detail
    first = verify.check_component_classification()
    assert first == verify.check_component_classification()
    assert first[0] == [] and "s;" not in first[1]


def test_a_crashed_check_keeps_its_registry_name(monkeypatch):
    # A8's surface polynomial raises: the failure is reported as A8, in place
    def crash(p):
        raise RuntimeError("no surface")

    monkeypatch.setattr(verify, "q1_eval", crash)
    results = run_all()
    assert [r.name for r in results] == [f"A{i}" for i in range(1, 13)]
    (a8,) = [r for r in results if not r.passed]
    assert a8.name == "A8"
    assert a8.detail == "raised RuntimeError: no surface"
