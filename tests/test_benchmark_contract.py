"""What the benchmark (perfbench/) relies on. Its tracer wraps knotmeta
functions by name: a renamed or moved function would silently drop out of
traced runs, so every name it lists must resolve here. Its worker calls
`main.main(args=..., prog_name="knotmeta", standalone_mode=False)` with
stdout an io.StringIO: if that call broke, every benchmark call would fail
while the rest of the suite stayed green."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from knotmeta import apoly, exactalg, riley
from knotmeta.cli import main
from knotmeta.knotdata import builtin_apolys

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


DATA = ROOT / "tests" / "data"


@pytest.mark.parametrize(
    "argv, recording",
    [
        (["meta-enum", "-i", str(DATA / "census" / "knots.json"), "-f", "json"],
         DATA / "census" / "meta-enum.json"),
        (["tb-riley", "-p", "15", "-q", "1", "--roots", "-f", "json"],
         DATA / "tb_riley_roots" / "p15_q1.json"),
    ],
    ids=["census", "roots"],
)
def test_worker_entry_writes_what_main_writes(argv, recording):
    outs = []
    for call in (
        lambda: main.main(args=argv, prog_name="knotmeta", standalone_mode=False),
        lambda: main(argv),
    ):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert call() is None  # the worker reads a return as exit 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1] == recording.read_text()
