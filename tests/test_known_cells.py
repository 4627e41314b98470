"""Known-answer cells of the numerical envelope (ROADMAP item 1).

Each scenario has an analytic answer.  The cells the code gets wrong are
strict xfails that name their defect, next to the cells it gets right: a
fix turns its xfails into failures, so the fix removes the marks.  The
unipotent Jordan rows are in `test_stability.py::TestJordanPowerCells`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from lorentzdyn import (GroupClass, HyperbolicPoint, MatrixSequence, QuadraticForm, Subspace,
                        as_subspace_ellipsoid, as_subspace_graph, as_subspace_kak, boost,
                        classify_elementary, limit_set, lorentz_as_check, spas_subspace)
from lorentzdyn.cartan import random_lorentz
from lorentzdyn.errors import EquicontinuousError
from lorentzdyn.models import diagonal_action, second_factor_action_matrix

GOLDEN = Path(__file__).parent / "golden"
DETECTORS = [as_subspace_kak, as_subspace_ellipsoid, as_subspace_graph]


def _detector_id(f):
    return f.__name__


# ---------------------------------------------------------------------------
# scale: c J_3(1)^n, n = 1..40.  AS = span(e1, e2) and SPAS = span(e1) for
# every c > 0; the absolute thresholds read the scale instead.


def _scaled_j3(c: float) -> MatrixSequence:
    j3 = np.eye(3) + np.diag(np.ones(2), 1)
    return MatrixSequence.from_terms([c * np.linalg.matrix_power(j3, n) for n in range(1, 41)])


class TestScaledJordanCells:
    @pytest.mark.parametrize("c", [1.0, 1e3])
    @pytest.mark.parametrize("detector", DETECTORS, ids=_detector_id)
    def test_stable_plane(self, detector, c):
        res = detector(_scaled_j3(c))
        assert res.converged and res.subspace.distance(Subspace(basis=np.eye(3)[:, :2])) < 1e-4

    def test_spas_unit_scale(self):
        res = spas_subspace(_scaled_j3(1.0))
        assert res.converged and res.subspace.distance(Subspace.spanned_by([1, 0, 0])) < 1e-4

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "scale dependence: at c = 1e3 the decaying singular value 2e3 / n^2 stays "
        "above 1 / BOUND_THRESHOLD over the tail, so SPAS has dimension 0, not 1"))
    def test_spas_large_scale(self):
        assert spas_subspace(_scaled_j3(1e3)).subspace.dim == 1

    @pytest.mark.xfail(strict=True, raises=EquicontinuousError, reason=(
        "scale dependence: at c = 1e-3 the growing singular value 1e-3 n^2 stays "
        "below BOUND_THRESHOLD up to n = 40, so the divergent sequence is refused "
        "as equicontinuous"))
    @pytest.mark.parametrize("detector", DETECTORS + [spas_subspace], ids=_detector_id)
    def test_small_scale(self, detector):
        want = 1 if detector is spas_subspace else 2
        assert detector(_scaled_j3(1e-3)).subspace.dim == want


# ---------------------------------------------------------------------------
# the paper's central case: Lorentz-conjugated boosts k B(0.12 i) k^-1,
# i = 1..40.  The stable space is the lightlike hyperplane k e_+^perp.

_LORENTZ_RIGHT = {(3, 8)}
_LORENTZ_REASON = (
    "finite-rapidity error: the detected stable hyperplane is about e^(-t) off "
    "the analytic one, far past AGREEMENT_TOL, so lorentz_as_check reports "
    "stable-hyperplane-not-lightlike or spas-not-isotropic")


def _conjugated_boosts(d: int, seed) -> MatrixSequence:
    k = np.eye(d) if seed is None else random_lorentz(d, np.random.default_rng(seed))
    k_inv = np.linalg.inv(k)
    return MatrixSequence.from_terms([k @ boost(d, 0.12 * i) @ k_inv for i in range(1, 41)])


@pytest.mark.parametrize("d", [3, 4])
def test_plain_boosts_pass_the_lorentz_check(d):
    rep = lorentz_as_check(QuadraticForm.minkowski(d), _conjugated_boosts(d, None))
    assert rep.passed, rep.failures


@pytest.mark.parametrize("d, seed", [
    pytest.param(d, seed, marks=() if (d, seed) in _LORENTZ_RIGHT else pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=_LORENTZ_REASON))
    for d in (3, 4) for seed in range(40)])
def test_conjugated_boosts_pass_the_lorentz_check(d, seed):
    rep = lorentz_as_check(QuadraticForm.minkowski(d), _conjugated_boosts(d, seed))
    assert rep.passed, rep.failures


# ---------------------------------------------------------------------------
# anti-de Sitter pairs: X -> g_n X h_n^-1 on R^2 x R^2 with
# g_n = k1 diag(e^(tn), e^(-tn)) k1^T and h_n likewise at rate s.  The
# singular values are e^(+-(t+s)n) and e^(+-(t-s)n), with fixed singular
# directions, so the stable and strongly stable spaces are exact.


def _rotation(a: float) -> np.ndarray:
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def _ads_pair(t: float, s: float):
    k1, k2 = _rotation(0.3), _rotation(1.1)
    terms = [diagonal_action(k1 @ np.diag([np.exp(t * n), np.exp(-t * n)]) @ k1.T)
             @ second_factor_action_matrix(k2 @ np.diag([np.exp(s * n), np.exp(-s * n)]) @ k2.T)
             for n in range(1, 41)]
    w, v = np.linalg.eigh(terms[0].T @ terms[0])
    stable = Subspace.from_spanning(v[:, w <= 1 + 1e-9])
    strongly = Subspace.from_spanning(v[:, w < 1 - 1e-9])
    return MatrixSequence.from_terms(terms), stable, strongly


_ADS_REASON = (
    "slow exponential growth: e^(0.03 n) reaches only 3.3 at n = 40, under "
    "BOUND_THRESHOLD, so the middle pair counts as bounded: AS 3 and SPAS 1, "
    "not 2 and 2")
_ADS_CELLS = [
    pytest.param(0.15, 0.15, d, id=f"0.15-0.15-{d.__name__}") for d in DETECTORS
] + [
    pytest.param(0.15, 0.0, d, id=f"0.15-0-{d.__name__}") for d in DETECTORS
] + [
    pytest.param(0.15, 0.10, as_subspace_graph, id="0.15-0.10-as_subspace_graph"),
] + [
    pytest.param(0.15, 0.12, d, id=f"0.15-0.12-{d.__name__}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=_ADS_REASON)) for d in DETECTORS
] + [
    pytest.param(0.15, 0.10, d, id=f"0.15-0.10-{d.__name__}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "slow exponential growth: e^(0.05 n) reaches 7.4 at n = 40, under "
            "BOUND_THRESHOLD, so kak and ellipsoid say 3; graph's own collapse "
            "rule says 2")))
    for d in (as_subspace_kak, as_subspace_ellipsoid)
]


@pytest.mark.parametrize("t, s, detector", _ADS_CELLS)
def test_ads_pair_stable_space(t, s, detector):
    seq, stable, _ = _ads_pair(t, s)
    res = detector(seq)
    assert res.converged and res.subspace.dim == stable.dim
    assert res.subspace.distance(stable) < 1e-9


@pytest.mark.parametrize("t, s", [
    (0.15, 0.15), (0.15, 0.0),
    pytest.param(0.15, 0.12, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                      reason=_ADS_REASON)),
    pytest.param(0.15, 0.10, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "slow exponential decay: e^(-0.05 n) is 0.135 at n = 40, above "
        "1 / BOUND_THRESHOLD, so SPAS has dimension 1, not 2"))),
])
def test_ads_pair_strongly_stable_space(t, s):
    seq, _, strongly = _ads_pair(t, s)
    res = spas_subspace(seq)
    assert res.converged and res.subspace.dim == strongly.dim
    assert res.subspace.distance(strongly) < 1e-9


# ---------------------------------------------------------------------------
# limit set of the Schottky pair of tests/golden/schottky3.gens.json: large
# (non-elementary).  A refusal as equicontinuous is allowed; an elementary
# verdict is wrong.

_SCHOTTKY_WRONG = {0, 3, 4, 5, 7, 8, 9, 10, 11, 12, 15, 17, 18, 20, 21, 22, 23, 24, 26, 29}


@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "thin evidence at depth 6: few words clear WORD_DIVERGENCE_THRESHOLD, and "
        "their images fall into one or two clusters, so the group is called "
        "elementary")) if seed in _SCHOTTKY_WRONG else ())
    for seed in range(30)])
def test_schottky_limit_set_at_depth_6(seed):
    form = QuadraticForm.minkowski(3)
    gens = json.loads((GOLDEN / "schottky3.gens.json").read_text())
    s = HyperbolicPoint.from_timelike(form, [1, 0, 0])
    try:
        est = limit_set(form, gens, s, depth=6, samples=2000, seed=seed)
    except EquicontinuousError:
        return  # refused: allowed
    assert classify_elementary(est) is GroupClass.NON_ELEMENTARY
