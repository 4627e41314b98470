"""Cartan (KAK) decomposition A = L.D.R and the Lorentz pattern check.

L and R are Euclidean rotations, D is the ascending list of singular
values.  For an isometry of a Lorentz form expressed in a standard basis,
D must look like (lambda, 1, ..., 1, 1/lambda) with a single contracted
and a single expanded direction; `lorentz_kak` verifies that pattern and
returns lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PatternMismatchError, SingularMatrixError
from .minkowski import QuadraticForm, _as_matrix, require_isometry

# Relative floor under which a singular value means a numerically singular input.
_SINGULAR_TOL = 1e-14
# Pattern tolerance for the Lorentz D = (lambda, 1, ..., 1, 1/lambda) check.
_PATTERN_TOL = 1e-8


@dataclass(frozen=True)
class KakFactorization:
    """Triple (L, D, R) with A = L . diag(D) . R, D ascending positive.

    From `kak_stack` every field carries a leading term axis.
    """

    L: np.ndarray
    D: np.ndarray
    R: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.L * self.D[..., None, :]) @ self.R


def kak_stack(terms) -> KakFactorization:
    """Factor a stack (n x d x d) of invertible matrices, term by term, as
    rotation . positive-diagonal . rotation, with one batched SVD.

    D is the ascending singular-value list.  If det A > 0 both factors land
    in SO(d); for det A < 0 one factor necessarily has determinant -1 (the
    sign is pushed into R).  Ties in D leave L and R non-unique; only D is
    contract-stable under such ties.

    Each factor is one fancy index in `argsort`'s order (L a transposed view
    of rows of U^T), and a +-1 multiply lands L in SO(d): exact, ties too.
    """
    u, s, vt = np.linalg.svd(terms)
    if np.any((s[:, -1] == 0) | (s[:, -1] < _SINGULAR_TOL * s[:, 0]) | (s[:, 0] == 0)):
        raise SingularMatrixError("matrix is numerically singular")
    order = np.argsort(s, axis=-1)  # ascending
    rows = np.arange(len(s))[:, None]
    Lt, D, R = u.swapaxes(1, 2)[rows, order], s[rows, order], vt[rows, order]
    sign = np.where(np.linalg.det(Lt) < 0, -1.0, 1.0)[:, None]
    Lt[:, -1] *= sign
    R[:, -1] *= sign
    return KakFactorization(L=Lt.swapaxes(1, 2), D=D, R=R)


def kak(A) -> KakFactorization:
    """Cartan factorization of one invertible matrix; see `kak_stack`."""
    f = kak_stack(_as_matrix(A)[None])
    return KakFactorization(L=f.L[0], D=f.D[0], R=f.R[0])


def norm_growth(A) -> float:
    """Largest singular value (operator norm); >= 1 for volume-preserving A."""
    return float(np.linalg.norm(_as_matrix(A), 2))


def standardizing_congruence(form: QuadraticForm) -> np.ndarray:
    """Matrix C with C^T . gram . C equal to the standard diag(-1,...,-1,1,...,1).

    Negative directions come first, so a Lorentz form standardizes to
    diag(-1, 1, ..., 1).  Deterministic: built from the eigendecomposition
    of the Gram matrix with eigenvalues sorted ascending.
    """
    w, v = np.linalg.eigh(form.gram)
    return v / np.sqrt(np.abs(w))


def is_standard_lorentz(form: QuadraticForm) -> bool:
    """True when the Gram matrix is diag(-1, 1, ..., 1) to 1e-12 absolute, so
    `lorentz_kak` factors the matrix itself and not a standardized conjugate."""
    standard = np.eye(form.dim)
    standard[0, 0] = -1.0
    return bool(np.allclose(form.gram, standard, rtol=0, atol=1e-12))


def require_lorentz(form: QuadraticForm):
    """Raise PatternMismatchError unless the form has signature (1, d-1)."""
    if not form.is_lorentz():
        raise PatternMismatchError(
            f"form has signature {form.signature}, expected Lorentz (1, d-1)"
        )


def lorentz_kak(form: QuadraticForm, A):
    """KAK of a Lorentz isometry with the D-pattern (lambda, 1, ..., 1, 1/lambda).

    Returns (KakFactorization, lambda) with lambda in (0, 1].  When the Gram
    matrix is not already diag(-1, 1, ..., 1) the matrix is first conjugated
    by the standardizing congruence; the returned factorization then refers
    to the standardized conjugate (Euclidean rotations cannot factor the
    original matrix while D keeps the Lorentz pattern).
    """
    m = require_isometry(form, A)
    require_lorentz(form)
    if not is_standard_lorentz(form):
        c = standardizing_congruence(form)
        m = np.linalg.solve(c, m @ c)
    fact = kak(m)
    d = fact.D
    mid_dev = np.max(np.abs(d[1:-1] - 1.0)) if d.shape[0] > 2 else 0.0
    if abs(d[0] * d[-1] - 1.0) > _PATTERN_TOL or mid_dev > _PATTERN_TOL:
        raise PatternMismatchError(
            "singular values do not match diag(lambda, 1, ..., 1, 1/lambda): "
            "form/basis mismatch"
        )
    lam = min(float(d[0]), 1.0)
    return fact, lam


def boost(d: int, rapidity: float, axis: int = 1) -> np.ndarray:
    """Hyperbolic rotation of the (e_0, e_axis) plane for diag(-1, 1, ..., 1)."""
    if not 1 <= axis < d:
        raise DimensionError("boost axis must be a spacelike index")
    b = np.eye(d)
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    b[0, 0] = c
    b[axis, axis] = c
    b[0, axis] = s
    b[axis, 0] = s
    return b


def spatial_rotation(d: int, q: np.ndarray) -> np.ndarray:
    """Embed a (d-1) x (d-1) rotation as an isometry fixing e_0."""
    r = np.eye(d)
    r[1:, 1:] = q
    return r


def random_lorentz(d: int, rng: np.random.Generator,
                   max_rapidity: float = 1.5) -> np.ndarray:
    """Random element of SO(1, d-1) built as three boosts interleaved with rotations."""
    a = np.eye(d)
    for _ in range(3):
        t = rng.uniform(-max_rapidity, max_rapidity)
        axis = int(rng.integers(1, d))
        a = a @ boost(d, t, axis) @ spatial_rotation(d, _random_rotation(d - 1, rng))
    return a


def _random_rotation(k: int, rng: np.random.Generator) -> np.ndarray:
    if k == 1:
        return np.eye(1)
    m = rng.normal(size=(k, k))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
