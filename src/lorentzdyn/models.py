"""The explicit model spaces: flat Lorentz tori, Hopf surfaces, anti-de
Sitter 3-space.

Flat tori carry the integer isometry groups O(g, Z) of an integer Lorentz
form g, enumerated exactly column level by level.  The Hopf surface is the
quotient of the punctured plane by x -> alpha x; its affine dynamics is
bounded-but-not-equicontinuous with non-uniform stability modulus.  Anti-de
Sitter 3-space is realized as a level set of the split (2,2) form on
R^2 x R^2, where one SL(2, R) factor acts diagonally and the other moves a
circle's worth of isotropic 2-planes by Mobius transformations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetError,
    DegenerateFormError,
    DimensionError,
    NotIsometryError,
    NotIsotropicError,
    NumericalError,
    PreconditionError,
)
from .minkowski import (ISOTROPY_TOL, QuadraticForm, _as_matrix, _as_vector, _dots,
                        canonical_ray, canonical_rays)
from .projective import BoundaryPoint, _ray_angles, ray_angle

# Column-candidate evaluations allowed in one integer enumeration.
ENUMERATION_BUDGET = 50_000_000
# Rows of the column table built at once, cross-product entries tested in
# one block of an enumeration level, and (candidate ray, element) pairs in
# one block of the fixed-ray test.
_LEVEL_CHUNK = 1 << 16

INFINITY = float("inf")


def _exact_integers(a, what: str) -> np.ndarray:
    """`a` as int64, when every entry is an integer of magnitude below 2**53
    (past it float64 no longer holds every integer, and casts can wrap)."""
    f = np.asarray(a).astype(float)
    if not (np.all(np.abs(f) < 2.0 ** 53) and np.array_equal(np.rint(f), a)):
        raise PreconditionError(f"{what} entries must be integers of magnitude below 2**53")
    return f.astype(np.int64)


@dataclass(frozen=True)
class RationalLorentzForm:
    """Integer symmetric Gram matrix of Lorentz signature (1, d-1)."""

    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionError("Gram matrix must be square")
        g = _exact_integers(g, "Gram")
        if not np.array_equal(g, g.T):
            raise DegenerateFormError("Gram matrix is not symmetric")
        eig = np.linalg.eigvalsh(g.astype(float))
        if int(np.sum(eig < 0)) != 1 or int(np.sum(eig > 0)) != g.shape[0] - 1:
            raise DegenerateFormError("integer form must have Lorentz signature")
        g.flags.writeable = False
        object.__setattr__(self, "gram", g)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def to_quadratic_form(self) -> QuadraticForm:
        return QuadraticForm(gram=self.gram.astype(float))

    def require_isometry(self, a, what: str) -> np.ndarray:
        """`a` as a read-only int64 matrix, when it is an integer matrix with
        A^T g A = g, compared in Python integers so no product can wrap.  No
        determinant is checked: det(A)^2 det(g) = det(g) forces det A = +-1."""
        a = _exact_integers(a, what)
        if a.shape != self.gram.shape:
            raise DimensionError("matrix dimension does not match the form")
        exact = a.astype(object)
        if not np.array_equal(exact.T @ self.gram.astype(object) @ exact, self.gram):
            raise NotIsometryError("matrix does not preserve the form")
        a.flags.writeable = False
        return a

    def require_isometries(self, elements, what: str) -> np.ndarray:
        """`require_isometry` of each element in turn, as one read-only
        (n x d x d) int64 stack.  A stack of d x d numbers is checked whole,
        with one object-array product, and the first element that fails is
        handed to `require_isometry`, which raises its error; any other
        input (ragged, say) is checked one element at a time."""
        elements = list(elements)
        d = self.dim
        try:
            a = np.asarray(elements)
        except ValueError:  # ragged
            a = None
        if a is None or a.shape[1:] != (d, d) or a.dtype.kind not in "biuf":
            mats = np.array([self.require_isometry(m, what) for m in elements],
                            dtype=np.int64).reshape(-1, d, d)
        else:
            f = a.astype(float)
            ok = (np.abs(f) < 2.0 ** 53).all(axis=(1, 2)) & (np.rint(f) == a).all(axis=(1, 2))
            mats = np.where(ok[:, None, None], f, 0.0).astype(np.int64)
            exact = mats.astype(object)
            ok &= (np.swapaxes(exact, 1, 2) @ self.gram.astype(object) @ exact
                   == self.gram).all(axis=(1, 2))
            if not ok.all():
                self.require_isometry(elements[int(np.argmin(ok))], what)
        mats.flags.writeable = False
        return mats


def integer_isometries(g: RationalLorentzForm, height: int) -> list[np.ndarray]:
    """All A in GL(d, Z) with max |entry| <= height and A^T g A = g, exactly.

    Column level by level: each partial choice c_1..c_j (c_i^T g c_k = g_ik)
    takes every column of norm g_jj that pairs correctly with all of it, in
    depth-first order.  The search errors out beyond d = 4, or when the
    column table or the operation count passes the budget, or when an int64
    product could wrap (d^2 height^2 max|g| bounds every entry it forms).
    """
    if height < 1:
        raise PreconditionError("height must be >= 1")
    d = g.dim
    if d > 4:
        raise BudgetError("integer enumeration is limited to d <= 4")
    if d * d * height * height * int(np.max(np.abs(g.gram))) >= 2 ** 63:
        raise BudgetError(f"products of height {height} under this Gram matrix could overflow int64")
    if (2 * height + 1) ** d > ENUMERATION_BUDGET:
        raise BudgetError(f"the column table of height {height} exceeds the "
                          "integer enumeration budget")
    gram = g.gram
    # the table of columns, lexicographic, in blocks of at most _LEVEL_CHUNK
    # rows; only a nonzero column whose norm is a diagonal entry of g can be
    # picked, so only those are kept
    shape, total = (2 * height + 1,) * d, (2 * height + 1) ** d
    columns, norms = [], []
    for lo in range(0, total, _LEVEL_CHUNK):
        block = np.stack(np.unravel_index(np.arange(lo, min(lo + _LEVEL_CHUNK, total)), shape),
                         -1) - height
        n = np.einsum("ki,ij,kj->k", block, gram, block)
        keep = (n[:, None] == np.diag(gram)).any(axis=1) & block.any(axis=1)
        columns.append(block[keep])
        norms.append(n[keep])
    columns, norms = np.concatenate(columns), np.concatenate(norms)
    ops = 0
    partial = np.zeros((1, d, 0), dtype=np.int64)  # the one empty choice
    for j in range(d):
        cand = columns[norms == gram[j, j]]
        step = max(1, _LEVEL_CHUNK // max(1, j * len(cand)))
        grown = []
        for lo in range(0, max(len(partial), 1), step):  # one empty block if none is left
            block = partial[lo:lo + step]
            ok = np.all(block.transpose(0, 2, 1) @ gram @ cand.T == gram[:j, j, None], axis=1)
            rows, picks = np.nonzero(ok)  # row-major: depth-first order
            ops += ok.size * j + len(rows)
            if ops > ENUMERATION_BUDGET:
                raise BudgetError("integer enumeration exceeded its operation budget")
            grown.append(np.concatenate([block[rows], cand[picks, :, None]], axis=2))
        partial = np.concatenate(grown)
    return list(partial)


@dataclass(frozen=True)
class EntireCone:
    """Distinguished value: every isotropic direction of the form is fixed."""

    form: RationalLorentzForm


def fixed_isotropic_directions(g: RationalLorentzForm, elements):
    """Isotropic rays fixed projectively by every element.

    Candidates are real one-dimensional eigendirections on the cone, from
    one eig of the elements that are not +-identity; each is then verified
    against all of them.  Returns `EntireCone` when every element is
    +-identity (torus case), else a list of BoundaryPoint.
    """
    d = g.dim
    mats = g.require_isometries(elements, "element")
    acting = mats[~(mats == mats[:, :1, :1] * np.eye(d, dtype=int)).all(axis=(1, 2))].astype(float)
    if not len(acting):
        return EntireCone(form=g)
    w, v = np.linalg.eig(acting)
    # eigenvectors element by element, as contiguous rows: a strided BLAS dot
    # adds in another order than the per-vector norm did
    vecs = np.ascontiguousarray(np.real(np.swapaxes(v, 1, 2)).reshape(-1, d))
    nv = np.sqrt(_dots(vecs, vecs))
    real = (np.abs(w.imag).ravel() <= 1e-8) & (nv >= 1e-8)
    vecs = vecs[real] / nv[real, None]
    on_cone = np.abs(_dots((vecs[:, None, :] @ g.to_quadratic_form().gram)[:, 0], vecs)) <= 1e-8
    rays = canonical_rays(vecs[on_cone])
    # the first ray left is kept, and every later one within 1e-9 of it dropped
    rest = rays[_fixed_by_all(acting, rays)]
    fixed = []
    while len(rest):
        fixed.append(rest[0])
        rest = rest[1:][_ray_angles(rest[1:], rest[0]) >= 1e-9]
    return [BoundaryPoint(ray=r) for r in fixed]


def _fixed_by_all(acting: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Mask of the rows of `rays` that every matrix of `acting` fixes,
    ``ray_angle(a @ ray, ray) <= 1e-8``.

    The rays still standing meet the next block of elements, twice as many
    as the last and at most about `_LEVEL_CHUNK` (ray, element) pairs, so
    a ray that the first elements move, as most do, costs a few tests.
    """
    alive = np.arange(len(rays))
    start, width = 0, 1
    while alive.size and start < len(acting):
        width = max(1, min(2 * width, _LEVEL_CHUNK // alive.size))
        stop = start + width
        r = rays[alive, None, :]
        images = (acting[start:stop] @ r[..., None])[..., 0]
        alive = alive[np.all(_ray_angles(images, r) <= 1e-8, axis=1)]
        start = stop
    mask = np.zeros(len(rays), dtype=bool)
    mask[alive] = True
    return mask


def plus_minus_identity_check(g: RationalLorentzForm, a, rays) -> bool:
    """Executable form of the three-fixed-rays fact: an isometry fixing three
    pairwise independent isotropic rays is +-identity on their span.

    Raises when the input violates the precondition (a matrix that does not
    preserve g, a unit ray v with |<v, v>| > `ISOTROPY_TOL` under g, a ray
    not actually fixed, proportional rays, or multipliers that are not all
    +1 or all -1); returns the verified truth value.

    The multipliers mu_i of three fixed isotropic rays u_i satisfy
    <A u_i, A u_j> = mu_i mu_j <u_i, u_j>, and two distinct isotropic lines
    are never g-orthogonal in Lorentz signature, so mu_i mu_j = 1 for every
    pair.  Any other multipliers mean the rays are numerically one ray.
    """
    m = g.require_isometry(a, "matrix")
    vecs = [r.ray if isinstance(r, BoundaryPoint) else canonical_ray(_as_vector(r, g.dim))
            for r in rays]
    if len(vecs) != 3:
        raise PreconditionError("exactly three rays are required")
    gram = g.gram.astype(float)
    if any(abs(float(v @ gram @ v)) > ISOTROPY_TOL for v in vecs):
        raise NotIsotropicError("every ray must lie on the isotropic cone of the form")
    for i in range(3):
        for j in range(i + 1, 3):
            if ray_angle(vecs[i], vecs[j]) < 1e-8:
                raise PreconditionError("rays must be pairwise non-proportional")
    mults = []
    for v in vecs:
        img = m @ v
        if ray_angle(img, v) > 1e-8:
            raise PreconditionError("matrix does not fix all three rays")
        mults.append(float(img @ v))
    span = np.column_stack(vecs)
    for sign in (1.0, -1.0):
        if all(abs(mu - sign) <= 1e-8 for mu in mults):
            return bool(np.linalg.norm(m @ span - sign * span) <= 1e-8 * np.linalg.norm(span))
    raise PreconditionError(
        f"the multipliers of three fixed isotropic rays must be all +1 or all -1, got "
        f"{', '.join(f'{mu:.6g}' for mu in mults)}: the rays are numerically one ray")


# ---------------------------------------------------------------------------
# the split Lorentz form on R^3 and its model isometries


def split_form_3d() -> QuadraticForm:
    """The Lorentz form x1 x3 + x2^2 (lightcone coordinates)."""
    return QuadraticForm.from_gram([[0.0, 0.0, 0.5], [0.0, 1.0, 0.0],
                                    [0.5, 0.0, 0.0]])


def split_unipotent(b: float) -> np.ndarray:
    """One-parameter unipotent isometry group of the split form.

    exp of b times the nilpotent generator [[0,2,0],[0,0,-1],[0,0,0]]; the
    powers satisfy split_unipotent(b)^k = split_unipotent(k b) exactly.
    """
    return np.array([[1.0, 2.0 * b, -b * b], [0.0, 1.0, -b], [0.0, 0.0, 1.0]])


def split_boost(c: float) -> np.ndarray:
    """Diagonal isometry diag(c, 1, 1/c) of the split form."""
    if c == 0:
        raise PreconditionError("boost parameter must be nonzero")
    return np.diag([float(c), 1.0, 1.0 / float(c)])


# ---------------------------------------------------------------------------
# Hopf surfaces


@dataclass(frozen=True)
class HopfModel:
    """Quotient of R^2 - {0} by x -> alpha x, with the diagonal map diag(1, lam).

    Fundamental annulus: {y : alpha < |y| <= 1} in the Euclidean norm (any
    other choice shifts representatives by a bounded power of alpha).
    """

    alpha: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0 < self.lam:
            raise PreconditionError("need 0 < alpha < 1 < lam")
        if not np.isfinite(self.lam):
            raise PreconditionError("lam must be finite")


def hopf_return_cocycle(model: HopfModel, x, n: int) -> tuple[int, np.ndarray]:
    """Derivative representative of the n-th iterate read in the fundamental
    annulus: the unique m with diag(alpha^-m, lam^n alpha^-m) . x back in the
    annulus, together with that matrix.

    For points off the contracted axis the representatives stay bounded in
    norm over n while their inverses blow up (bounded but not
    equicontinuous); on the axis (b = 0) the representative is diag(1, lam^n)
    and diverges.
    """
    alpha, lam = model.alpha, model.lam
    pt = _as_vector(x, 2)
    if not np.any(pt):
        raise PreconditionError("the origin is not a point of the Hopf surface")
    with np.errstate(over="ignore"):
        r = float(np.hypot(*pt))
    try:  # |x| past float64's range, or alpha ** k past it for a subnormal x
        k = int(np.ceil(-np.log(r) / np.log(alpha)))
        while alpha ** k * r > 1.0:
            k += 1
        while alpha ** k * r <= alpha:
            k -= 1
    except OverflowError:
        raise NumericalError("the point is too near 0 or infinity to scale into the "
                             "fundamental annulus") from None
    a, b = alpha ** k * pt
    try:
        with np.errstate(over="ignore", divide="ignore"):
            log_rho = 0.5 * np.log(a * a + (lam ** n * b) ** 2)
    except OverflowError:  # lam ** n of a Python float
        log_rho = np.inf
    if not np.isfinite(log_rho):  # the squared norm overflowed, or underflowed to 0
        raise NumericalError(f"the return cocycle at n = {n} leaves the floating-point range")
    m = int(np.floor(log_rho / np.log(alpha)))
    while -m * np.log(alpha) + log_rho > 0.0:
        m -= 1
    while -m * np.log(alpha) + log_rho <= np.log(alpha):
        m += 1
    rep = np.diag([alpha ** (-m), lam ** n * alpha ** (-m)])
    return m, rep


# ---------------------------------------------------------------------------
# anti-de Sitter 3-space as a level set in (R^2 x R^2, split form)


def ads_form() -> QuadraticForm:
    """The split (2,2) form on R^4 = R^2 x R^2 whose bilinear value pairs the
    two factors through the area form: <(u, v), (u', v')> = w(u, v') + w(u', v)
    normalized so that <e1, e4> = 1."""
    g = np.zeros((4, 4))
    g[0, 3] = g[3, 0] = 1.0
    g[1, 2] = g[2, 1] = -1.0
    return QuadraticForm(gram=g)


@dataclass(frozen=True)
class IsotropicPlane2:
    """Totally isotropic 2-plane of the split form, as a 4 x 2 basis."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.shape != (4, 2):
            raise DimensionError("basis must be 4 x 2")
        if np.linalg.matrix_rank(b, tol=1e-10) != 2:
            raise DimensionError("basis must have rank 2")
        g = ads_form().gram
        scale = max(1.0, np.max(np.abs(b)))  # tolerance 1e-10 scale^2, never squared
        if np.max(np.abs(b.T @ g @ b)) / scale > 1e-10 * scale:
            raise PreconditionError("plane is not totally isotropic for the split form")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)


def ads_plane_family(alpha: float) -> IsotropicPlane2:
    """The circle of diagonal-invariant isotropic 2-planes: {(u, alpha u)}
    for finite alpha and {0} x R^2 at alpha = infinity."""
    if np.isnan(alpha):
        raise PreconditionError("the family parameter alpha must be a number or infinity")
    if np.isinf(alpha):
        return IsotropicPlane2(basis=np.array([[0.0, 0.0], [0.0, 0.0],
                                               [1.0, 0.0], [0.0, 1.0]]))
    return IsotropicPlane2(basis=np.array([[1.0, 0.0], [0.0, 1.0],
                                           [float(alpha), 0.0], [0.0, float(alpha)]]))


def ads_pair_orbit(p1: IsotropicPlane2, p2: IsotropicPlane2) -> int:
    """dim(P1 and P2): the complete orbit invariant of a pair of isotropic
    2-planes under the split orthogonal group (2 equal, 1 line, 0 transverse)."""
    stacked = np.hstack([p1.basis, p2.basis])
    return 4 - int(np.linalg.matrix_rank(stacked, tol=1e-10))


def diagonal_action(a) -> np.ndarray:
    """The 4 x 4 isometry (u, v) -> (A u, A v) of an SL(2, R) element."""
    m = _as_matrix(a)
    _require_sl2(m)
    out = np.zeros((4, 4))
    out[:2, :2] = m
    out[2:, 2:] = m
    return out


def second_factor_action_matrix(h) -> np.ndarray:
    """The 4 x 4 isometry by which the second SL(2, R) factor acts.

    Identifying (u, v) in R^2 x R^2 with the 2 x 2 matrix X = [u | v]
    (so the split form's quadratic values are proportional to det X), the
    pair group acts by (g, h) . X = g X h^{-1}; this is the g = 1 slice.
    """
    m = _as_matrix(h)
    _require_sl2(m)
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    out = np.zeros((4, 4))
    out[0, 0] = d
    out[0, 2] = -c
    out[1, 1] = d
    out[1, 3] = -c
    out[2, 0] = -b
    out[2, 2] = a
    out[3, 1] = -b
    out[3, 3] = a
    return out


def _require_sl2(m: np.ndarray):
    """Refuse all but 2 x 2 matrices of determinant 1.

    Integer entries below 2**53 are checked exactly, ad - bc = 1 in Python
    integers.  Other input passes when the float ad - bc is within 1e-10
    of 1 plus a roundoff allowance of 64 eps (|ad| + |bc|): forming the two
    products and their difference, and whatever float arithmetic built the
    entries, loses accuracy in proportion to them.
    """
    if m.shape != (2, 2):
        raise DimensionError("expected a 2 x 2 matrix")
    if np.all(np.abs(m) < 2.0 ** 53) and np.array_equal(np.rint(m), m):
        a, b, c, d = (int(x) for x in m.ravel())
        ok = a * d - b * c == 1
    else:
        a, b, c, d = m.ravel().tolist()
        ad, bc = a * d, b * c
        allowance = 64.0 * np.finfo(float).eps * (abs(ad) + abs(bc))
        ok = abs(ad - bc - 1.0) <= 1e-10 + allowance
    if not ok:
        raise PreconditionError("matrix must have determinant 1")


def ads_second_factor_action(h, alpha: float) -> float:
    """Parameter of the image of ads_plane_family(alpha) under the second-
    factor action of h; a circle action matching the Mobius action on RP^1.

    Computed geometrically (move the plane, re-identify its parameter); the
    algebraic shadow is mobius_rp1(J h J, alpha) with J = diag(1, -1), i.e.
    the usual projective action read in the family's coordinate.  The basis
    is scaled exactly, by a power of two, to entries below 2 and nothing is
    squared, so every image float64 holds is returned; one past it raises.
    """
    mat = second_factor_action_matrix(h)
    basis = ads_plane_family(alpha).basis
    image = mat @ np.ldexp(basis, 1 - np.frexp(np.max(np.abs(basis)))[1])
    top, bottom = image[:2, :], image[2:, :]
    if not np.any(top):
        return INFINITY
    unit = top / np.max(np.abs(top))  # least squares against top, with no square of it
    with np.errstate(over="ignore"):
        ap = float(np.sum(bottom * unit) / np.sum(top * unit))
    if not np.isfinite(ap):
        raise NumericalError("the image parameter leaves the floating-point range")
    if np.max(np.abs(bottom - ap * top)) > 1e-8 * (1.0 + abs(ap)) * np.max(np.abs(top)):
        raise PreconditionError("image plane left the diagonal-invariant family")
    return ap


def mobius_rp1(m, t: float) -> float:
    """Usual fractional-linear action (a t + b) / (c t + d) on R + {infinity},
    as (a + b/t) / (c + d/t) for |t| > 1, so no product overflows."""
    mm = _as_matrix(m)
    a, b, c, d = mm[0, 0], mm[0, 1], mm[1, 0], mm[1, 1]
    if np.isinf(t):
        return a / c if c != 0.0 else INFINITY
    num, den = (a + b / t, c + d / t) if abs(t) > 1.0 else (a * t + b, c * t + d)
    if den == 0.0:
        return INFINITY
    with np.errstate(over="ignore"):
        return float(num / den)


def rp1_distance(s: float, t: float) -> float:
    """Chordal distance on the projective line (|sin| of the angle between
    the lines through (1, s) and (1, t); infinity is the vertical line)."""
    u = np.array([0.0, 1.0]) if np.isinf(s) else np.array([1.0, s]) / np.hypot(1.0, s)
    v = np.array([0.0, 1.0]) if np.isinf(t) else np.array([1.0, t]) / np.hypot(1.0, t)
    return abs(float(u[0] * v[1] - u[1] * v[0]))


def rational_ray_diagnostic(ray):
    """Denominator-bounded rational approximation of a ray, as a diagnostic
    only (rationality of limit data is an open matter, never asserted)."""
    v = np.asarray(ray.ray if isinstance(ray, BoundaryPoint) else ray, float)
    if not np.all(np.isfinite(v)) or not np.any(v):
        raise PreconditionError("a ray must be a finite nonzero vector (the zero vector has no "
                                "direction)")
    pivot = v[np.argmax(np.abs(v))]
    fracs = [Fraction(float(x / pivot)).limit_denominator(50) for x in v]
    approx = np.array([float(f) for f in fracs])
    err = float(np.linalg.norm(v / pivot - approx) / np.linalg.norm(v / pivot))
    return fracs, err
