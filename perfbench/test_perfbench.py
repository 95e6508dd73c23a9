"""The benchmark's own tests: tiny-size runs of every workload, the traced
counts the code implies, and mutation checks that corrupt one output and
require the oracles to count a failure.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

E2E = ("setup_s", "wall_s", "call_tail_ms", "peak_rss_mb")


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _tiny(workload, trace=0, mutate=None, seed=3):
    return run.measure(workload, seed, 0.3, trace, size="tiny", mutate=mutate)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke(workload):
    r = _tiny(workload)
    assert r["fail_ratio"] == 0, r["problems"]
    assert r["attempted"] >= 1
    assert all(r["metrics"][k] > 0 for k in E2E)
    assert r["medians"]["call_p50_ms"] > 0


def test_traced_counts_sweep():
    r = _tiny("sweep", trace=1)
    layers = r["layers"]
    assert r["fail_ratio"] == 0
    assert layers["riley.section_calls_per_knot"] == 4
    p_values = {p for p, _q in workloads.two_bridge_pairs(r["inputs"]["p_max"], True)}
    assert layers["riley.phi_distinct"] == len(p_values)
    assert layers["riley.roots_found"] == 0


def test_traced_counts_apoly():
    layers = _tiny("apoly", trace=1)["layers"]
    assert layers["apoly.profile_calls_per_tagged"] == 4
    assert layers["apoly.profile_calls_per_untagged"] == 3
    assert layers["exactalg.gcd_calls"] > 0


def test_traced_counts_census():
    r = _tiny("census", trace=1)
    dets = [k["det"] for k in r["inputs"]["knots"]]
    expected = sum((d - 1) // 2 for d in dets) / sum(dets)
    assert r["layers"]["metabelian.class_yield"] == pytest.approx(expected, rel=1e-12)
    assert r["layers"]["riley.section_s"] == 0


def _edit_json(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, sort_keys=True, indent=2)


def _wrong_meta_count(outs):
    def edit(rows):
        rows[0]["meta_count"] += 1

    return [_edit_json(outs[0], edit)]


def _dropped_class(outs):
    return [outs[0], _edit_json(outs[1], lambda rows: rows.pop()), outs[2]]


def _dropped_root(outs):
    def edit(doc):
        doc["approx"]["real_roots"].pop()

    return outs[:-1] + [_edit_json(outs[-1], edit)]


def _moved_root(outs):
    def edit(doc):
        roots = doc["approx"]["real_roots"]
        roots[0] = repr(float(roots[0]) * (1 + 1e-7))

    return outs[:-1] + [_edit_json(outs[-1], edit)]


def _dropped_warning(outs):
    def edit(reports):
        square = next(r for r in reports if r["name"].endswith("_square"))
        square["warning"] = None

    return [_edit_json(outs[0], edit)]


def _wrong_profile(outs):
    def edit(reports):
        reports[-1]["factor_profile"]["l_minus_1_power"] += 1

    return [_edit_json(outs[0], edit)]


@pytest.mark.parametrize(
    "workload, mutate",
    [
        ("sweep", _wrong_meta_count),
        ("census", _dropped_class),
        ("roots", _dropped_root),
        ("roots", _moved_root),
        ("apoly", _wrong_profile),
        ("apoly", _dropped_warning),
    ],
)
def test_mutation_is_caught(workload, mutate):
    r = _tiny(workload, mutate=mutate)
    assert r["fail_ratio"] > 0
    assert any(r["problems"])


def test_generators_are_seeded(tmp_path):
    fixtures = ROOT / "src" / "knotmeta" / "data"
    for workload in ("roots", "census", "apoly"):
        runs = []
        for n, seed in enumerate((5, 5, 6)):
            d = tmp_path / f"{workload}{n}"
            d.mkdir()
            _inv, _inputs, summary = workloads.build(workload, seed, "full", d, fixtures)
            files = {p.name: p.read_bytes() for p in d.iterdir()}
            runs.append((json.dumps(summary), files))
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
