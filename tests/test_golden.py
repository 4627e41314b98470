"""CLI golden reports: `lorentzdyn as` on checked-in inputs.

For `--oracle all`, keys, list lengths, strings and booleans must match
exactly and numbers to 1e-12 relative, so a later speed-up that drifts the
answers shows here.  The other reports must match byte for byte.  The five
`as` reports and the brute-force report were last rewritten when the 1/n
fit became one cached linear functional (in place of one `lstsq` per
projector entry), single linkage decided its links from a norm bound, the
Cartan route read its modulus off the spectrum D and the cap witnesses
were imaged once per term: keys, strings, booleans, dimensions and
subsequence indices stayed identical, subspaces moved by at most 9.7e-13
in sine distance, agreement entries by at most 1.0e-12 and brute-force
scores by at most 1.7e-16 relative.  The brute-force report was rewritten
again when each cap-boundary block was factored once per (direction, term)
instead of once per radius and the Newton stop became relative to
beta_min + mu: keys, directions, radii and `complete` stayed identical, and
12 of the 64 scores moved, by at most 8.7e-16 relative.  The batched cap
solver gives each problem the bits it gives alone.  The `limit-set` traces were
written by the per-word sampling loop and keep their bytes: the stacked
words are the same products and the stacked SVD the same LAPACK call.
The two `limit-set` reports were rewritten when ray angles moved from the
arccos of a cosine to 2 atan2(|u - v|, |u + v|): centroids, weights and
counts stayed identical, and only `angular_radius` (28 of schottky3's 122
floats, 14 of boosts4's 254) and `min_intercluster_gap` (one each) moved,
by at most 4.2e-14 absolute.  So
do the integer torus reports (`model torus-fixed`, `model torus-isoms`,
`entropy`), written before the torus layer's isometry gate became exact.
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


@pytest.mark.parametrize("report, args", CASES + BYTE_CASES,
                         ids=[c[0] for c in CASES + BYTE_CASES])
def test_single_oracle_reports_equal_their_entry_of_all(report, args, tmp_path):
    # a single detector factors the sequence in another order than
    # `--oracle all`; its entry and the strongly stable space must not move
    argv = ["as"] + [str(GOLDEN / a) if a.endswith(".json") else a for a in args]
    reports = {}
    for oracle in ("all", "kak", "ellipsoid", "graph"):
        out = tmp_path / f"{oracle}.json"
        assert main(argv + ["--oracle", oracle, "--output", str(out)]) == 0
        reports[oracle] = json.loads(out.read_text())
    full = reports.pop("all")
    for oracle, single in reports.items():
        assert list(single["oracles"]) == [oracle]
        got, want = dict(single["oracles"][oracle]), dict(full["oracles"][oracle])
        del got["oracle_agreement"], want["oracle_agreement"]
        assert got == want, oracle
        assert single["strongly_stable"] == full["strongly_stable"], oracle


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


INTEGER_CASES = [
    ("hyper322-mink3.fixed.json",
     ["model", "torus-fixed", "--gram", "mink3.json", "--elements", "hyper322.elems.json"]),
    ("unipotent-isplit3.fixed.json",
     ["model", "torus-fixed", "--gram", "isplit3.json", "--elements", "unipotent.elems.json"]),
    ("barning-diag11m1.entropy.json", ["entropy", "barning.json", "--gram", "diag11m1.json"]),
    ("mink3-h2.isoms.json", ["model", "torus-isoms", "--gram", "mink3.json", "--height", "2"]),
]


@pytest.mark.parametrize("report, args", INTEGER_CASES, ids=[c[0] for c in INTEGER_CASES])
def test_integer_model_matches_golden_report_bytes(report, args, tmp_path):
    out = tmp_path / "report.json"
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in args]
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / report).read_bytes()
