import functools

import numpy as np
import pytest

from lorentzdyn import (
    HyperbolicPoint,
    MatrixSequence,
    QuadraticForm,
    RationalLorentzForm,
    boost,
    integer_isometries,
    spatial_rotation,
    split_boost,
    split_form_3d,
    split_unipotent,
)
from lorentzdyn.cartan import _random_rotation


@pytest.fixture
def mink3():
    return QuadraticForm.minkowski(3)


@pytest.fixture
def mink4():
    return QuadraticForm.minkowski(4)


@pytest.fixture
def split3():
    return split_form_3d()


def fundamental_term(n: float) -> np.ndarray:
    """n-th matrix of the basic worked example, [[1,n,n^2/2],[0,1,-n],[0,0,1]].

    A generalized system given directly by the formula (the printed family
    is not closed under matrix powers), with stable plane e1 ^ e2 and
    strongly stable line e1.
    """
    return np.array([[1.0, n, n * n / 2.0], [0.0, 1.0, -n], [0.0, 0.0, 1.0]])


def fundamental_sequence(count: int = 40) -> MatrixSequence:
    return MatrixSequence.from_terms(
        [fundamental_term(n) for n in range(1, count + 1)],
        generator_spec="fundamental unipotent example",
    )


def chaos_sequence(count: int = 40) -> MatrixSequence:
    """A_n = C_n B_n with b_n = c_n = n, isometries of the split form."""
    return MatrixSequence.from_terms(
        [split_boost(n) @ split_unipotent(n) for n in range(1, count + 1)],
        generator_spec="chaos b_n = c_n = n",
    )


def boost_sequence(d: int = 3, step: float = 0.5, count: int = 24) -> MatrixSequence:
    return MatrixSequence.from_terms([boost(d, step * n) for n in range(1, count + 1)])


def alternating_boost_sequence() -> MatrixSequence:
    """B(0.5 n) along axis 2 for odd n and axis 1 for even n, n = 1..24: the
    tail splits into two families whose lightlike limit planes meet in a
    line, and no singular direction shrinks on both."""
    return MatrixSequence.from_terms([boost(3, 0.5 * n, axis=1 + n % 2) for n in range(1, 25)])


def scattered_sequence() -> MatrixSequence:
    """Q_n diag(1.3^n, 1, 1.3^-n) Q_n' for n = 1..40 with seeded random
    rotations: every tail candidate points its own way, so the 20 tail
    terms form 20 singleton clusters."""
    rng = np.random.default_rng(0)

    def rotation():
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        return q * np.sign(np.diag(r))

    return MatrixSequence.from_terms(
        [rotation() @ np.diag([1.3 ** n, 1.0, 1.3 ** -n]) @ rotation() for n in range(1, 41)])


def random_divergent_sequence(d: int, rng: np.random.Generator):
    """Seeded random divergent sequence in SO(1, d-1): powers of a rotation-
    conjugated boost, twisted along the sequence by stabilizer rotations when
    d >= 4.  Returns (sequence, spectral radius, exact stable hyperplane
    normal ray)."""
    t = rng.uniform(np.log(1.9), np.log(5.0))
    c = spatial_rotation(d, _random_rotation(d - 1, rng))
    m = c @ boost(d, t) @ c.T
    n_max = min(20, max(8, int(np.floor(14.2 / t))))
    terms = []
    acc = np.eye(d)
    for _ in range(n_max):
        acc = acc @ m
        term = acc
        if d >= 4:
            phi = rng.uniform(0, 2 * np.pi)
            k = np.eye(d)
            k[2:4, 2:4] = [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
            term = acc @ (c @ k @ c.T)
        terms.append(term)
    contracted = c @ np.concatenate([[1.0, -1.0], np.zeros(d - 2)])
    return MatrixSequence.from_terms(terms), float(np.exp(t)), contracted


def hyperboloid_point(form: QuadraticForm, rng: np.random.Generator) -> HyperbolicPoint:
    """Random point of the v_1 > 0 sheet for the standard Lorentz form."""
    d = form.dim
    r = rng.uniform(0.0, 2.0)
    u = rng.normal(size=d - 1)
    u /= np.linalg.norm(u)
    v = np.concatenate([[np.cosh(r)], np.sinh(r) * u])
    return HyperbolicPoint(v=v, form=form)


INTEGER_MINK3 = np.diag([-1, 1, 1]).astype(np.int64)
INTEGER_SPLIT3 = np.array([[0, 0, 1], [0, 2, 0], [1, 0, 0]], dtype=np.int64)


@pytest.fixture
def int_mink3():
    return RationalLorentzForm(gram=INTEGER_MINK3)


@pytest.fixture
def int_split3():
    return RationalLorentzForm(gram=INTEGER_SPLIT3)


def hyperbolic_322() -> np.ndarray:
    """Integer Lorentz isometry of diag(-1,1,1) with eigenvalues
    (3 + 2 sqrt 2, -1, 3 - 2 sqrt 2); found by the height-3 enumeration."""
    return np.array([[3, 2, 2], [2, 1, 2], [2, 2, 1]], dtype=np.int64)


def barning_power(p: int) -> np.ndarray:
    """p-th power of the Barning matrix, an integer isometry of
    diag(1, 1, -1) with spectral radius 3 + 2 sqrt 2."""
    return np.linalg.matrix_power(np.array([[1, 2, 2], [2, 1, 2], [2, 2, 3]], dtype=np.int64), p)


def integer_unipotent() -> np.ndarray:
    """Unipotent element of O(g, Z) for the integer split form."""
    return np.array([[1, 2, -1], [0, 1, -1], [0, 0, 1]], dtype=np.int64)


# (Gram diagonal, entry height) of the torus sweep: 864 + 864 + 80 elements
TORUS_SWEEP = (((1, 1, 1, -1), 2), ((-1, 1, 1, 1), 2), ((-1, 1, 1), 4))


@functools.lru_cache(maxsize=None)
def torus_sweep() -> tuple:
    """(form, element, class) for every element of O(g, Z) in `TORUS_SWEEP`,
    classified without eigenvalues: "finite" iff A^120 = I in Python
    integers (every root of unity of degree <= 4 is a 120th root), else
    "hyperbolic" iff an entry of A^60 passes 1e6 (a spectral radius above 1
    is at least 1.7 here, while parabolic powers grow quadratically), else
    "parabolic"."""
    out = []
    for diag, height in TORUS_SWEEP:
        g = RationalLorentzForm(gram=np.diag(diag))
        eye = np.eye(g.dim, dtype=int)
        for a in integer_isometries(g, height):
            if (np.linalg.matrix_power(a.astype(object), 120) == eye).all():
                kind = "finite"
            elif np.abs(np.linalg.matrix_power(a.astype(float), 60)).max() > 1e6:
                kind = "hyperbolic"
            else:
                kind = "parabolic"
            out.append((g, a, kind))
    return tuple(out)
