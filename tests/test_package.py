"""The package namespace: every ``__all__`` name resolves, on first access,
to the object of the one module that exports it."""

import importlib

import pytest

import wallachflow

MODULES = ("core", "flow", "equilibria", "linearize", "blowup", "surfaces", "integrate")
# the closed-form solvers and the other names that only tests called: they
# live under tests/ (closed_forms.py, test_blowup.py, test_flow.py,
# test_surfaces.py), and grad_q is q_and_grad(p)[1]
MOVED = ("solve_two_equal", "solve_sum_half", "solve_general", "CaseDiscriminants", "quadratic_parts_fd", "b_term",
         "volume", "grad_q", "normalization_term", "omega_slice_a1_half")


def _owner(name: str):
    (owner,) = [m for m in MODULES if name in importlib.import_module(f"wallachflow.{m}").__all__]
    return importlib.import_module(f"wallachflow.{owner}")


@pytest.mark.parametrize("name", wallachflow.__all__)
def test_name_is_its_modules_object(name):
    assert getattr(wallachflow, name) is getattr(_owner(name), name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from wallachflow import *", namespace)
    assert all(namespace[name] is getattr(_owner(name), name) for name in wallachflow.__all__)


def test_dir_lists_every_name():
    assert set(wallachflow.__all__) <= set(dir(wallachflow))
    assert "__version__" in dir(wallachflow)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wallachflow.no_such_name  # noqa: B018
    assert not hasattr(wallachflow, "no_such_name")


@pytest.mark.parametrize("name", MOVED)
def test_moved_names_are_not_in_the_package(name):
    assert name not in wallachflow.__all__
    assert not any(hasattr(importlib.import_module(f"wallachflow.{m}"), name) for m in MODULES)
