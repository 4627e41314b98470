"""The scenario module's own checks.

Each analytic answer in `scenarios.py` is checked against the definition
on its family's own terms, with numpy's SVD and no detector: AS is the
span of the right singular directions whose singular values stay under a
cap, and SPAS the span of those that fall under a floor.  The last term's
directions must match the answer's dimensions and lie within a stated
distance of it.  So a wrong hand-derived answer fails here, not as some
other test failing for the wrong reason.

A ratchet on the syntax trees under `tests/` keeps every builder in one
place, as `test_settable_values.py` keeps the settable values.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from lorentzdyn import MatrixSequence, QuadraticForm, Subspace
from lorentzdyn.cartan import random_lorentz
from lorentzdyn.stability import CLUSTER_LINK

from .scenarios import (E1, E12, ads_pair, alternating_boost_sequence, boost_sequence,
                        boosts_with_identity, chaos_sequence, conjugated_boost_terms,
                        fundamental_sequence, hyperbolic_322, integer_unipotent, jordan_answer,
                        jordan_powers, lorentz_answer, random_divergent_sequence, rotated_diagonal,
                        rotation_powers, scattered_sequence, shear_sequence,
                        split_unipotent_sequence)

TESTS = Path(__file__).resolve().parent
CAP, FLOOR = 10.0, 0.1  # singular values that stay bounded, and that decay


def _directions(a: np.ndarray, below: float) -> np.ndarray:
    """Orthonormal right singular directions of `a` with singular value <= below."""
    _, s, vt = np.linalg.svd(a)
    return vt[s <= below].T


def _sine(space: Subspace, frame: np.ndarray) -> float:
    """Sine of the largest principal angle of `space` from span(frame)."""
    b = space.basis
    if b.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(b - frame @ (frame.T @ b), 2))


def _with_line(pair):
    seq, line = pair
    return seq, line, Subspace.zero(3)


def _conjugated():
    k = random_lorentz(3, np.random.default_rng(0))
    seq = MatrixSequence.from_terms(conjugated_boost_terms(k, 0.12, 80))
    return (seq, *lorentz_answer(QuadraticForm.minkowski(3), k @ np.array([1.0, -1.0, 0.0])))


def _random_lorentz_family(d):
    seq, _, contracted = random_divergent_sequence(d, np.random.default_rng(d))
    return (seq, *lorentz_answer(QuadraticForm.minkowski(d), contracted))


_322_AS = Subspace.spanned_by([0.0, 1.0, -1.0], [-np.sqrt(2.0), 1.0, 1.0])

# (sequence, AS, SPAS, largest distance of the last term's directions)
FAMILIES = {
    "fundamental": lambda: (fundamental_sequence(200), E12, E1, 2e-2),
    "shear": lambda: (shear_sequence(200), *[Subspace.spanned_by([1, 0])] * 2, 1e-2),
    **{f"J{k}": lambda k=k, n=n, tol=tol: (jordan_powers(k, n), *jordan_answer(k), tol)
       for k, n, tol in [(2, 200, 1e-2), (3, 200, 2e-2), (4, 200, 3e-2), (5, 40, 0.2),
                         (6, 40, 0.25)]},
    "rotated-diagonal": lambda: (*_with_line(rotated_diagonal(0.5, 0)), 1e-9),
    "boosts": lambda: (boost_sequence(4, 0.5, 24),
                       *lorentz_answer(QuadraticForm.minkowski(4), [1, -1, 0, 0]), 1e-12),
    "conjugated-boosts": lambda: (*_conjugated(), 1e-4),
    "random-lorentz-3": lambda: (*_random_lorentz_family(3), 1e-6),
    "random-lorentz-4": lambda: (*_random_lorentz_family(4), 1e-6),
    "chaos": lambda: (chaos_sequence(100), E12, E1, 2e-2),
    "split-unipotent": lambda: (split_unipotent_sequence(200), E12, E1, 2e-2),
    **{f"ads-{s}": lambda s=s, n=n: (*ads_pair(0.15, s, n), 1e-11)
       for s, n in [(0.15, 40), (0.0, 50), (0.10, 50)]},
    "hyperbolic-322": lambda: (MatrixSequence.from_powers(hyperbolic_322(), 8), _322_AS,
                               Subspace.spanned_by([-np.sqrt(2.0), 1.0, 1.0]), 1e-12),
    "integer-unipotent": lambda: (MatrixSequence.from_powers(integer_unipotent(), 200), E12, E1,
                                  2e-2),
    "rotation-powers": lambda: (rotation_powers(1.0, 20), Subspace.full(3), Subspace.zero(3),
                                1e-12),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_analytic_answer_meets_the_definition(name):
    seq, stable, strongly, tol = FAMILIES[name]()
    bounded, decaying = _directions(seq.terms[-1], CAP), _directions(seq.terms[-1], FLOOR)
    assert (bounded.shape[1], decaying.shape[1]) == (stable.dim, strongly.dim)
    assert _sine(stable, bounded) <= tol and _sine(strongly, decaying) <= tol
    # from the middle term to the last the decaying values fall, and the
    # bounded ones stay under the cap: witnesses' images stay bounded
    mid, last = np.linalg.svd(seq.terms[[len(seq) // 2, -1]], compute_uv=False)[:, ::-1]
    assert np.all(last[:strongly.dim] < mid[:strongly.dim])
    assert np.all(mid[:stable.dim] <= CAP)


def test_alternating_boosts_have_a_stable_line_and_no_strongly_stable_one():
    """Each parity's limit plane holds span(1, -1, -1), the two planes are
    apart, and their decaying lines too."""
    terms = alternating_boost_sequence().terms
    line = Subspace.spanned_by([1, -1, -1])
    odd, even = (_directions(t, CAP) for t in terms[-2:])
    assert _sine(line, odd) <= 1e-12 and _sine(line, even) <= 1e-12
    assert _sine(Subspace(basis=odd), even) > 0.5
    assert _sine(Subspace(basis=_directions(terms[-2], FLOOR)), _directions(terms[-1], FLOOR)) > 0.5


@pytest.mark.parametrize("every", range(2, 14))
def test_recurring_identities_sit_in_the_tail(every):
    """At least two identities in the tail n = 21..40: a bounded subsequence."""
    seq = boosts_with_identity(0.3, every, 40)
    assert sum(np.array_equal(t, np.eye(3)) for t in seq.tail) >= 2


def test_scattered_tail_planes_are_pairwise_apart():
    """No two tail terms' bounded planes are within the clustering link."""
    planes = [_directions(t, CAP) for t in scattered_sequence().tail]
    assert all(p.shape[1] == 2 for p in planes)
    assert min(_sine(Subspace(basis=a), b) for i, a in enumerate(planes)
               for b in planes[i + 1:]) > CLUSTER_LINK


def _functions(tree: ast.Module) -> list[str]:
    return [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_no_builder_is_defined_twice():
    """No top-level function twice in one module, and no builder of
    `scenarios.py` again elsewhere under `tests/`, with or without a
    leading underscore."""
    builders = set(_functions(ast.parse((TESTS / "scenarios.py").read_text(encoding="utf-8"))))
    again = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _functions(tree)
        again += [f"{path.name}: {n} twice" for n in sorted(set(names)) if names.count(n) > 1]
        if path.name != "scenarios.py":
            again += [f"{path.name}: {n.name} is a scenario builder" for n in ast.walk(tree)
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and n.name.lstrip("_") in builders]
    assert not again, again
