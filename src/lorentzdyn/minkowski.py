"""Bilinear forms, causal classification and the isotropic structure.

Everything downstream (Cartan factorizations, stable subspaces, boundary
dynamics) is phrased against a non-degenerate symmetric form of recorded
signature.  Vectors and Gram matrices are plain float ndarrays; all values
here are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFormError,
    DimensionError,
    NotIsometryError,
    NotIsotropicError,
)

# Scale-invariant isotropy test: |<v,v>| <= ISOTROPY_TOL * |v|^2 (Euclidean).
ISOTROPY_TOL = 1e-9
# Default Grassmannian equality threshold (largest principal angle, radians).
SUBSPACE_TOL = 1e-7
# Gram matrices must be symmetric to this relative tolerance.
SYMMETRY_TOL = 1e-12
# Eigenvalues below this (relative to the largest) mean a degenerate form.
DEGENERACY_TOL = 1e-12
# Relative defect |A^T g A - g|_F / |g|_F under which A counts as an isometry,
# on top of the roundoff allowance of `require_isometry`.
ISOMETRY_TOL = 1e-8

_ORTHONORMAL_TOL = 1e-10


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {m.shape}")
    return m


def _as_vector(v, d: int | None = None) -> np.ndarray:
    u = np.asarray(v, dtype=float).reshape(-1)
    if d is not None and u.shape[0] != d:
        raise DimensionError(f"expected a vector of dimension {d}, got {u.shape[0]}")
    return u


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b over the last axis, broadcast.  `np.vecdot` runs the
    same BLAS dot per row as `a @ b` on 1-D rows, so the bits match a
    per-row loop (`einsum` and `norm(axis=...)` sum in another order)."""
    return np.vecdot(a, b)


@dataclass(frozen=True)
class QuadraticForm:
    """Non-degenerate symmetric bilinear form with its signature (p, q),
    read off the Gram matrix's eigenvalues.

    p counts negative eigenvalues of the Gram matrix, q positive ones.
    A Lorentz form in these conventions has signature (1, d-1).
    """

    gram: np.ndarray
    signature: tuple[int, int] = field(init=False)

    def __post_init__(self):
        g = _as_matrix(self.gram)
        if g.shape[0] != g.shape[1]:
            raise DimensionError("Gram matrix must be square")
        scale = np.linalg.norm(g)
        if scale == 0 or np.linalg.norm(g - g.T) > SYMMETRY_TOL * scale:
            raise DegenerateFormError("Gram matrix is not symmetric")
        g = 0.5 * (g + g.T)
        g.flags.writeable = False
        object.__setattr__(self, "gram", g)
        eig = np.linalg.eigvalsh(g)
        top = np.max(np.abs(eig))
        if np.min(np.abs(eig)) <= DEGENERACY_TOL * top:
            raise DegenerateFormError("form is degenerate")
        object.__setattr__(self, "signature", (int(np.sum(eig < 0)), int(np.sum(eig > 0))))

    @classmethod
    def from_gram(cls, gram) -> "QuadraticForm":
        """Build a form from a Gram matrix."""
        return cls(gram=gram)

    @classmethod
    def minkowski(cls, d: int) -> "QuadraticForm":
        """Standard Lorentz form diag(-1, 1, ..., 1) on R^d."""
        g = np.eye(d)
        g[0, 0] = -1.0
        return cls(gram=g)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def is_lorentz(self) -> bool:
        return self.signature == (1, self.dim - 1)


class CausalType(enum.Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"
    ZERO = "zero"


def evaluate(form: QuadraticForm, u, v) -> float:
    """The bilinear value u^T . gram . v; symmetric in u and v."""
    d = form.dim
    return float(_as_vector(u, d) @ form.gram @ _as_vector(v, d))


def causal_type(form: QuadraticForm, v) -> CausalType:
    """Classify v as timelike / lightlike / spacelike, tolerance scaled by |v|^2."""
    u = _as_vector(v, form.dim)
    n2 = float(u @ u)
    if n2 == 0.0:
        return CausalType.ZERO
    q = evaluate(form, u, u)
    if q < -ISOTROPY_TOL * n2:
        return CausalType.TIMELIKE
    if q > ISOTROPY_TOL * n2:
        return CausalType.SPACELIKE
    return CausalType.LIGHTLIKE


def is_isometry(form: QuadraticForm, A) -> bool:
    """True iff `require_isometry` accepts the matrix A."""
    try:
        require_isometry(form, _as_matrix(A))
    except NotIsometryError:
        return False
    return True


def require_isometry(form: QuadraticForm, A) -> np.ndarray:
    """Gate that |A^T g A - g|_F <= ISOMETRY_TOL * |g|_F plus a roundoff
    allowance, for one matrix or a stack (... x d x d) checked term by term.

    Forming A^T g A loses about eps * |A|^2 of absolute accuracy to
    cancellation, so matrices of large norm cannot be checked against
    ISOMETRY_TOL * |g| alone; the allowance keeps genuinely non-preserving
    matrices (defect of order |A|^2 |g|) detectable at every scale.  A defect
    that overflows, or a non-finite entry, cannot be checked, so it fails the
    gate.
    """
    m = np.asarray(A, dtype=float)
    if m.ndim < 2:
        raise DimensionError(f"expected a matrix, got shape {m.shape}")
    if m.shape[-2:] != form.gram.shape:
        raise DimensionError("matrix dimension does not match the form")
    g = form.gram
    stack = m.reshape(-1, *g.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.linalg.norm(np.swapaxes(stack, 1, 2) @ g @ stack - g, axis=(1, 2))
    # a non-finite entry makes the allowance infinite
    if not np.isfinite(defect).all() or (np.isfinite(m).all()
                                         and _over_allowance(form, stack, defect)):
        raise NotIsometryError("matrix does not preserve the form")
    return m


def _over_allowance(form: QuadraticForm, stack: np.ndarray, defect: np.ndarray) -> bool:
    """Whether a term's defect exceeds ISOMETRY_TOL * |g|_F plus the
    allowance 64 d eps |A|_2^2 |g|_2, for a finite stack.

    The 2-norms are needed only near the bound: |A|_F^2 / d <= |A|_2^2 <=
    |A|_F^2 and |g|_F / sqrt(d) <= |g|_2 <= |g|_F, so a defect under the
    allowance's lower bound passes and one over its upper bound fails,
    each bound widened by a relative 1e-9 for rounding.  Only the terms
    between them, or with an overflowing bound, take the SVD.
    """
    g, d = form.gram, form.dim
    g_f = np.linalg.norm(g)
    tol = ISOMETRY_TOL * g_f
    with np.errstate(over="ignore"):
        scale = 64.0 * d * np.finfo(float).eps * np.einsum("nij,nij->n", stack, stack) * g_f
        if np.any(defect > tol + scale * (1.0 + 1e-9)):
            return True
        band = ~(defect <= tol + scale / (d * np.sqrt(d)) * (1.0 - 1e-9)) | np.isinf(scale)
        if not band.any():
            return False
        op = np.linalg.norm(stack[band], 2, axis=(1, 2))
        allowance = 64.0 * d * np.finfo(float).eps * op * op * np.linalg.norm(g, 2)
    return bool(np.any(defect[band] > tol + allowance))


def canonical_rays(vs) -> np.ndarray:
    """Deterministic projective representatives of the rows of an n x d
    stack: Euclidean unit length, first coordinate of magnitude > 1e-9
    made positive."""
    u = np.asarray(vs, dtype=float)
    n = np.sqrt(_dots(u, u))
    if np.any(n == 0):
        raise NotIsotropicError("zero vector has no ray representative")
    u = u / n[:, None]
    big = np.abs(u) > 1e-9
    lead = u[np.arange(len(u)), np.argmax(big, axis=1)]
    np.negative(u, out=u, where=(big.any(axis=1) & (lead < 0))[:, None])
    u.flags.writeable = False
    return u


def canonical_ray(v) -> np.ndarray:
    """`canonical_rays` of one vector."""
    return canonical_rays(_as_vector(v)[None])[0]


# Why `project_rows_to_cone` cannot project a row, by its failure code.
_CONE_FAILURES = (
    "cannot project the zero vector",
    "vector cannot be projected onto the cone",
    "vector is not close to the isotropic cone",
)


def project_rows_to_cone(form: QuadraticForm, vs) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-by-one-step isotropic rays to the rows of an n x d stack
    (Newton step along gram.v), with one failure code per row.

    Used to land nearly isotropic limit directions exactly on the cone.
    A row far from the cone (no small real step exists) has code k > 0,
    the 1-based index of its reason in `_CONE_FAILURES`, and a NaN ray.
    """
    u = np.asarray(vs, dtype=float)
    g = form.gram
    # row @ gram as one vector-matrix product per row, as the 1-D product is
    ug = (u[:, None, :] @ g)[:, 0]
    q = _dots(ug, u)
    n2 = _dots(u, u)
    w = (g @ u[:, :, None])[:, :, 0]
    wg = (w[:, None, :] @ g)[:, 0]
    a = _dots(wg, w)
    b = -2.0 * _dots(wg, u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # q(u - t w) = q + b t + a t^2 ; take the root of smaller magnitude
        linear = np.abs(a) <= 1e-300
        disc = b * b - 4.0 * a * q
        # cancellation-free small root: t = 2q / (-b -+ sqrt(disc))
        big = -(b + np.copysign(np.sqrt(disc), b)) / 2.0
        t_big = big / a
        t_small = np.where(big != 0.0, q / big, 0.0)
        t = np.where(linear, -q / b,
                     np.where(np.abs(t_small) <= np.abs(t_big), t_small, t_big))
        far = np.abs(t) * np.sqrt(_dots(w, w)) > 0.5 * np.sqrt(n2)
        on_cone = np.abs(q) <= 1e-15 * n2
        target = np.where(on_cone[:, None], u, u - t[:, None] * w)
    code = np.select(
        [n2 == 0, on_cone, np.where(linear, b == 0.0, disc < 0), far], [1, 0, 2, 3], 0)
    rays = np.full(u.shape, np.nan)
    rays[code == 0] = canonical_rays(target[code == 0])
    return rays, code


def project_to_cone(form: QuadraticForm, v) -> np.ndarray:
    """`project_rows_to_cone` of one vector; raises NotIsotropicError when
    it cannot be projected."""
    rays, code = project_rows_to_cone(form, _as_vector(v, form.dim)[None])
    if code[0]:
        raise NotIsotropicError(_CONE_FAILURES[code[0] - 1])
    rays.flags.writeable = False
    return rays[0]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace given by a Euclidean column-orthonormal basis matrix.

    Equality is Grassmannian: two subspaces are equal when the largest
    principal angle between them is below `SUBSPACE_TOL` (overridable via
    `isclose`).  The zero subspace is a (d, 0) basis.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise DimensionError("basis must be a d x k matrix")
        if b.shape[1] > 0:
            gram = b.T @ b
            if np.linalg.norm(gram - np.eye(b.shape[1])) > _ORTHONORMAL_TOL:
                raise DimensionError("basis columns are not orthonormal")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_spanning(cls, columns) -> "Subspace":
        """Orthonormalize a d x k matrix whose columns span the subspace."""
        m = np.asarray(columns, dtype=float)
        if m.ndim == 1:
            m = m.reshape(-1, 1)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        rank = int(np.sum(s > 1e-12 * (s[0] if s.size else 1.0)))
        return cls(basis=u[:, :rank])

    @classmethod
    def spanned_by(cls, *vectors) -> "Subspace":
        return cls.from_spanning(np.column_stack([_as_vector(v) for v in vectors]))

    @classmethod
    def zero(cls, d: int) -> "Subspace":
        return cls(basis=np.zeros((d, 0)))

    @classmethod
    def full(cls, d: int) -> "Subspace":
        return cls(basis=np.eye(d))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def distance(self, other: "Subspace") -> float:
        return grassmann_distance(self.basis, other.basis)

    def isclose(self, other: "Subspace", tol: float = SUBSPACE_TOL) -> bool:
        return self.distance(other) < tol

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.isclose(other)

    def contains(self, v, tol: float = 1e-8) -> bool:
        u = _as_vector(v, self.ambient_dim)
        n = np.linalg.norm(u)
        if n == 0:
            return True
        residual = u - self.basis @ (self.basis.T @ u)
        return bool(np.linalg.norm(residual) <= tol * n)

    def angle_to_vector(self, v) -> float:
        """Angle between a vector and the subspace (0 if contained), from
        the residual and the projection, exact at every angle."""
        u = _as_vector(v, self.ambient_dim)
        n = np.linalg.norm(u)
        if n == 0 or self.dim == 0:
            return 0.0 if n == 0 else np.pi / 2
        coords = self.basis.T @ u
        return float(np.arctan2(np.linalg.norm(u - self.basis @ coords), np.linalg.norm(coords)))


def grassmann_distance(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal angle between two column spaces, in radians.

    Computed through the sine (operator norm of the projection residual),
    which stays accurate down to machine precision where the inverse cosine
    of a near-unit cosine would lose half the digits.  Subspaces of
    different dimension are at distance pi/2 by convention.
    """
    a = np.asarray(basis_a, float)
    b = np.asarray(basis_b, float)
    if a.shape[1] != b.shape[1]:
        return np.pi / 2
    if a.shape[1] == 0:
        return 0.0
    residual = b - a @ (a.T @ b)
    s = np.linalg.norm(residual, 2)
    return float(np.arcsin(min(1.0, s)))


def orthogonal_complement(form: QuadraticForm, s: Subspace) -> Subspace:
    """{v : <v, w> = 0 for all w in S}, computed as the null space of S^T.gram."""
    if s.ambient_dim != form.dim:
        raise DimensionError("subspace does not live in the form's space")
    if s.dim == 0:
        return Subspace.full(form.dim)
    m = s.basis.T @ form.gram
    _, sv, vt = np.linalg.svd(m)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    return Subspace(basis=vt[rank:].T)


def lightlike_hyperplane(form: QuadraticForm, u) -> Subspace:
    """u-perp for isotropic u: the (d-1)-plane containing u on which the
    form degenerates with kernel R.u."""
    v = _as_vector(u, form.dim)
    ct = causal_type(form, v)
    if ct is not CausalType.LIGHTLIKE:
        raise NotIsotropicError(f"vector is {ct.value}, not lightlike")
    return orthogonal_complement(form, Subspace.spanned_by(v))


def restricted_gram(form: QuadraticForm, s: Subspace) -> np.ndarray:
    """Gram matrix of the form restricted to the subspace, in its basis."""
    return s.basis.T @ form.gram @ s.basis


def degenerate_kernel(form: QuadraticForm, s: Subspace) -> Subspace:
    """Kernel of the restricted form inside S (directions orthogonal to all of
    S): the eigenvalues of its Gram matrix within 1e-6 max(1, |largest|) of 0."""
    g = restricted_gram(form, s)
    if s.dim == 0:
        return s
    w, v = np.linalg.eigh(g)
    scale = max(np.max(np.abs(w)), 1.0)
    cols = v[:, np.abs(w) <= 1e-6 * scale]
    if cols.shape[1] == 0:
        return Subspace.zero(s.ambient_dim)
    return Subspace.from_spanning(s.basis @ cols)
