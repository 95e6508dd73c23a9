"""The benchmark's tracer (perfbench/tracer.py) wraps knotmeta functions by
name. A renamed or moved function would silently drop out of traced runs,
so every name it lists must resolve here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from knotmeta import apoly, exactalg, riley
from knotmeta.knotdata import builtin_apolys

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize(
    "module, name",
    [(m, f) for m, funcs in load_targets().items() for f in funcs],
)
def test_traced_function_resolves(module, name):
    mod = importlib.import_module(f"knotmeta.{module}")
    assert callable(getattr(mod, name, None)), f"knotmeta.{module}.{name}"


def test_poly_gcd_is_bound_where_the_tracer_sees_it():
    # the tracer swaps every module-level binding of exactalg.poly_gcd
    assert apoly.poly_gcd is exactalg.poly_gcd
    assert riley.poly_gcd is exactalg.poly_gcd


def test_factor_profile_calls_per_analyze(monkeypatch):
    # perfbench asserts 4 calls per tagged record and 3 per untagged one
    real = apoly.factor_profile
    calls = []

    def counting(A):
        calls.append(A.name)
        return real(A)

    monkeypatch.setattr(apoly, "factor_profile", counting)
    for A in builtin_apolys():
        calls.clear()
        apoly.analyze(A, det=9)
        assert len(calls) == (4 if A.pq is not None else 3), A.name
