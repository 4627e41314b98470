"""CLI golden reports: `lorentzdyn as` on checked-in inputs.

The reports under tests/golden/ were written by the per-pair and per-term
loops that the batched kernels replaced.  For `--oracle all`, keys, list
lengths, strings and booleans must match exactly and numbers to 1e-12
relative, so a later speed-up that drifts the answers shows here.  The
brute-force report must match byte for byte: its batched cap solver does
the scalar solver's arithmetic.  So must the `limit-set` reports and traces,
written by the per-word sampling loop: the stacked words are the same
products and the stacked SVD the same LAPACK call.  The long-tail `as`
reports (a 200-term rotated fundamental tail and a d = 6 Lorentz sequence
under `--form`) were written before the subspace-limit layer worked on
stacked families, and must match byte for byte.
"""

import json
import math
from pathlib import Path

import pytest

from lorentzdyn.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("fundamental40.as.json", ["fundamental40.json"]),
    ("chaos40-split3.as.json", ["chaos40.json", "--form", "split3.json"]),
    ("lorentz4-mink4.as.json", ["lorentz4.json", "--form", "mink4.json"]),
]


def _assert_matches(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        # integral floats print without a fraction, so int and float mix here
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        if math.isnan(want):
            assert math.isnan(got), where
        else:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("report, args", CASES, ids=[c[0] for c in CASES])
def test_as_all_oracles_matches_golden_report(report, args, tmp_path):
    argv = ["as"] + [str(GOLDEN / a) if a.endswith(".json") else a for a in args]
    out = tmp_path / "report.json"
    assert main(argv + ["--oracle", "all", "--output", str(out)]) == 0
    want = json.loads((GOLDEN / report).read_text())
    _assert_matches(json.loads(out.read_text()), want, "report")


BYTE_CASES = [
    ("fundamental200r.as.json", ["fundamental200r.json"]),
    ("lorentz6-mink6.as.json", ["lorentz6.json", "--form", "mink6.json"]),
]


@pytest.mark.parametrize("report, args", BYTE_CASES, ids=[c[0] for c in BYTE_CASES])
def test_as_all_oracles_matches_golden_report_bytes(report, args, tmp_path):
    argv = ["as"] + [str(GOLDEN / a) if a.endswith(".json") else a for a in args]
    out = tmp_path / "report.json"
    assert main(argv + ["--oracle", "all", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / report).read_bytes()


def test_brute_oracle_matches_golden_report_bytes(tmp_path):
    out = tmp_path / "report.json"
    argv = ["as", str(GOLDEN / "fundamental40.json"), "--oracle", "brute",
            "--directions", "16", "--seed", "2", "--output", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / "fundamental40.brute.json").read_bytes()


LIMIT_CASES = [
    ("schottky3-mink3", ["schottky3.gens.json", "--form", "mink3.json", "--samples", "300",
                         "--divergence-threshold", "20"]),
    ("boosts4-mink4", ["boosts4.gens.json", "--form", "mink4.json", "--samples", "200",
                       "--depth", "6", "--seed", "2", "--divergence-threshold", "50"]),
]


@pytest.mark.parametrize("name, args", LIMIT_CASES, ids=[c[0] for c in LIMIT_CASES])
def test_limit_set_matches_golden_report_and_trace_bytes(name, args, tmp_path):
    out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    argv = ["limit-set"] + [str(GOLDEN / a) if a.endswith(".json") else a for a in args]
    assert main(argv + ["--output", str(out), "--trace", str(trace)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.limit.json").read_bytes()
    assert trace.read_bytes() == (GOLDEN / f"{name}.trace.csv").read_bytes()
