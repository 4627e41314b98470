"""Self-tests of the benchmark: input generator, tracer and traced CLI runs.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs as gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_lorentz_short  # noqa: E402

ld = run.import_package()


def _lorentz_cases(seed):
    rng = np.random.default_rng(seed)
    return [gen.lorentz_case(d, t, rng) for d in (3, 4, 5, 6) for t in gen.rapidity_grid(4)]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generator_is_deterministic_per_seed(seed):
    first, again = _lorentz_cases(seed), _lorentz_cases(seed)
    other = _lorentz_cases(seed + 1)
    for a, b, c in zip(first, again, other):
        assert np.array_equal(a.terms, b.terms) and np.array_equal(a.ray, b.ray)
        assert a.terms.shape == c.terms.shape
        assert not np.array_equal(a.terms, c.terms)


def test_generated_terms_are_isometries():
    lorentz = _lorentz_cases(7)
    chaos = gen.LorentzCase(gen.chaos_terms(40), np.eye(3)[0], gen.split_gram())
    for case in lorentz + [chaos]:
        g = case.gram
        for a in case.terms:
            defect = np.linalg.norm(a.T @ g @ a - g)
            assert defect <= 1e-8 * max(1.0, np.linalg.norm(a, 2) ** 2)
        assert abs(case.ray @ g @ case.ray) < 1e-12
    for case in lorentz:
        # the reference ray is contracted along the whole sequence
        images = np.linalg.norm(case.terms @ case.ray, axis=1)
        assert np.all(np.diff(images) < 0) and images[-1] < 1e-3


def test_tracer_counts_direct_calls_exactly():
    a = gen.fundamental_term(3.0)
    e12, e1 = np.eye(3)[:, :2], np.eye(3)[:, :1]
    original_kak = ld.stability.kak
    tracer = Tracer()
    with tracer.installed():
        ld.cartan.kak(a)  # outside an item: not recorded
        with tracer.item(0):
            ld.stability.kak(a)
            ld.cli.kak(a)
            ld.cartan.kak(a)
            ld.kak(a)
            ld.minkowski.grassmann_distance(e12, e12)
            ld.stability.grassmann_distance(e1, e12[:, 1:])
            np.linalg.svd(a)
    assert ld.stability.kak is original_kak
    totals = tracer.totals()
    calls = {name: totals[name][0] for name in totals}
    assert calls["cartan.kak"] == 4
    assert calls["minkowski.grassmann_distance"] == 2
    assert calls["numpy.linalg.norm"] == 2  # the 2-norm inside grassmann_distance
    assert calls["numpy.linalg.det"] == 4   # the orientation test inside kak
    assert calls["numpy.linalg.svd"] == 4 + 2 + 1
    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name"]]
    norm_parents = names[spans["parent"][names == "numpy.linalg.norm"]]
    assert list(norm_parents) == ["minkowski.grassmann_distance"] * 2
    for _, ms, self_ms in totals.values():
        assert 0.0 <= self_ms <= ms + 1e-9


def test_traced_cli_report_is_byte_identical(tmp_path):
    items = build_lorentz_short(ld, 3, str(tmp_path))
    for kind in ("lorentz-d6", "chaos40"):
        item = next(it for it in items if it.kind == kind)
        assert item.run() == 0
        item.check(0)
        (report,) = tmp_path.glob("report*.json")
        untraced = report.read_bytes()
        report.unlink()
        tracer = Tracer()
        with tracer.installed(), tracer.item(0):
            assert item.run() == 0
        assert report.read_bytes() == untraced
        assert tracer.totals()["cli.main"][0] == 1
        report.unlink()


def test_workload_names_match_the_benchmark_file():
    import json
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
