"""Approximately stable subspaces of a matrix sequence.

A sequence (A_n) of invertible matrices is treated as a generalized
dynamical system at the origin: a direction is approximately stable when
nearby directions have bounded images along the sequence, and strongly so
when those images can be driven to zero.  Three independent detectors
recover the stable subspace:

* ``as_subspace_kak``       via Cartan factors A_n = L_n D_n R_n,
* ``as_subspace_ellipsoid`` via the shrinking axes of {x : |x|<=1, |A_n x|<=1},
* ``as_subspace_graph``     via Grassmannian limits of the graphs (x, A_n x),

plus ``brute_force_as``, a direct discretization of the definition that
backs the other three as an oracle.  Finite data cannot witness a limit;
each detector classifies singular-value trends over the tail of the
sequence and accelerates the subspace limit by polynomial extrapolation
in 1/n (the drift of the candidate subspaces is O(1/n) for unipotent-type
sequences, so plain tails converge too slowly to be useful).
"""

from __future__ import annotations

import enum
import functools
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .cartan import (KakFactorization, kak,  # noqa: F401  (kak stays importable here)
                     kak_stack, require_lorentz)
from .errors import (
    ConvergenceError,
    EquicontinuousError,
    InsufficientDataError,
    NumericalError,
    SingularMatrixError,
)
from .minkowski import (
    QuadraticForm,
    Subspace,
    _dots,
    degenerate_kernel,
    evaluate,
    grassmann_distance,
    orthogonal_complement,
    require_isometry,
)

# Singular values above this for the whole tail, and still climbing, count
# as growing; below its inverse and shrinking they count as decaying.
BOUND_THRESHOLD = 10.0
# Tail growth ratio sigma(N)/sigma(N/2) that separates growth from a plateau.
# 2.0 misclassifies linearly growing values (ratio -> 2 exactly); 1.7 leaves
# margin on both sides.
GROWTH_RATIO = 1.7
# Single-linkage scale under which tail subspaces belong to one drifting
# family; distinct subsequential limits must be separated well above it.
CLUSTER_LINK = 0.02
# Pairwise agreement required of the detectors on converged input.
AGREEMENT_TOL = 1e-5
# Tolerance for intersecting subsequential limits.
INTERSECTION_TOL = 1e-6

_MIN_TERMS = 8


class StabilityKind(enum.Enum):
    STABLE = "stable"
    STRONGLY_STABLE = "strongly_stable"


@dataclass(frozen=True)
class MatrixSequence:
    """Finite indexed family of invertible d x d matrices.

    ``generator_spec`` is free-form provenance (e.g. "powers of A", "words in
    two boosts") used only in reports.

    The spectral data every detector reads is computed once per sequence:
    ``norms`` (the operator norm of each term, equal to ``norm_growth``)
    comes from the singularity check, and ``cartan`` (the stacked
    ``kak`` factors) on first use.  The subspace limits of the Cartan route
    are kept too, one per (rank, kind), so the stable and strongly stable
    spaces are each computed once however many analyses read them.  All
    are pure functions of the frozen terms.
    """

    terms: np.ndarray
    generator_spec: str | None = None
    norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.terms, dtype=float)
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise SingularMatrixError("terms must be a list of square matrices")
        if not np.all(np.isfinite(t)):
            raise SingularMatrixError("terms must be finite (no NaN or infinity)")
        sv = np.linalg.svd(t, compute_uv=False)
        if np.any(sv[:, -1] <= 1e-13 * sv[:, 0]):
            raise SingularMatrixError("sequence contains a numerically singular term")
        t = t.copy()
        t.flags.writeable = False
        norms = sv[:, 0].copy()
        norms.flags.writeable = False
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "norms", norms)

    @functools.cached_property
    def cartan(self) -> KakFactorization:
        """`kak` of every term, stacked along a leading term axis (read-only)."""
        fact = kak_stack(self.terms)
        for a in (fact.L, fact.D, fact.R):
            a.flags.writeable = False
        return fact

    @functools.cached_property
    def _cartan_limits(self) -> dict:
        """Cartan-route `_detected` results computed so far, by (rank, kind)."""
        return {}

    @classmethod
    def from_powers(cls, a, count: int) -> "MatrixSequence":
        m = np.asarray(a, dtype=float)
        terms = []
        acc = m
        for _ in range(count):
            terms.append(acc)
            acc = acc @ m
        return cls(terms=np.array(terms), generator_spec=f"powers 1..{count}")

    @classmethod
    def from_terms(cls, mats, generator_spec: str | None = None) -> "MatrixSequence":
        return cls(terms=np.array([np.asarray(m, float) for m in mats]),
                   generator_spec=generator_spec)

    def inverse(self) -> "MatrixSequence":
        return MatrixSequence(
            terms=np.linalg.inv(self.terms),
            generator_spec=f"inverses of ({self.generator_spec})",
        )

    def __len__(self) -> int:
        return self.terms.shape[0]

    @property
    def dim(self) -> int:
        return self.terms.shape[1]

    @property
    def labels(self) -> np.ndarray:
        """1-based time labels used for extrapolation in 1/n."""
        return np.arange(1, len(self) + 1, dtype=float)


@dataclass(frozen=True)
class ASResult:
    subspace: Subspace
    kind: StabilityKind
    modulus: float
    oracle_agreement: Mapping = field(default_factory=dict)
    converged: bool = True
    subsequence_indices: tuple = ()

    def __post_init__(self):
        if self.converged and not self.modulus > 0:
            raise NumericalError("converged result must carry a positive modulus")
        # read-only, as a sequence hands the same result to every caller
        object.__setattr__(self, "oracle_agreement",
                           MappingProxyType(dict(self.oracle_agreement)))


def is_divergent(seq: MatrixSequence) -> bool:
    """Monotone-trend test for norm_growth(A_n) -> infinity.

    True iff every tail norm exceeds `BOUND_THRESHOLD` and the tail still
    grows by 1.3 from its midpoint; a bounded subsequence (e.g. alternating
    boosts and identities) fails the first clause.
    """
    return _norms_diverge(seq.norms, BOUND_THRESHOLD)


def _norms_diverge(norms: np.ndarray, threshold: float) -> bool:
    """`is_divergent`'s trend test on a list of norms, against `threshold`."""
    n = len(norms)
    if n < 2:
        return False
    tail = norms[n // 2:]
    if np.min(tail) <= threshold:
        return False
    return bool(norms[-1] >= 1.3 * norms[n // 2])


# ---------------------------------------------------------------------------
# tail classification and subspace-limit machinery


def _tail_slice(n: int) -> slice:
    return slice(n // 2, n)


def _require_usable(seq: MatrixSequence):
    if len(seq) < _MIN_TERMS:
        raise InsufficientDataError(
            f"subspace-limit detectors need at least {_MIN_TERMS} terms, got {len(seq)}"
        )


def _growing_flags(sig: np.ndarray, threshold: float, ratio: float) -> np.ndarray:
    """Per singular-value index: exceeds threshold over the whole tail and climbs."""
    n = sig.shape[0]
    tail = sig[_tail_slice(n)]
    above = np.all(tail > threshold, axis=0)
    climbing = sig[-1] > ratio * sig[n // 2]
    return above & climbing


def _decaying_flags(sig: np.ndarray, threshold: float, ratio: float) -> np.ndarray:
    n = sig.shape[0]
    tail = sig[_tail_slice(n)]
    below = np.all(tail < 1.0 / threshold, axis=0)
    falling = sig[-1] < sig[n // 2] / ratio
    return below & falling


def _sine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`grassmann_distance(a[i], b[i])` for stacks of equal-rank bases; `a`
    may also be one basis, compared with every basis of `b`."""
    residual = b - a @ (np.swapaxes(a, -1, -2) @ b)
    s = np.linalg.svd(residual, compute_uv=False)[:, 0]
    return np.arcsin(np.minimum(1.0, s))


def _cluster_by_linkage(bases: np.ndarray) -> list[list[int]]:
    """Single-linkage components of the subspaces ``bases[i]`` at
    Grassmannian scale `CLUSTER_LINK`.

    The components of the graph "distance <= CLUSTER_LINK" do not depend on
    which edges are looked at, so long as no pair joining two separate
    components is skipped.  Consecutive tail candidates are linked first; then each i
    is compared only with the later candidates still outside its component.
    A converging tail costs m - 1 distances instead of m(m - 1)/2.
    """
    m = len(bases)
    close = _sine_distances(bases[:-1], bases[1:]) <= CLUSTER_LINK
    comp = np.concatenate([[0], np.cumsum(~close)])
    for i in range(m):
        outside = comp != comp[i]
        if not outside.any():
            break  # one component: every later i has no candidate outside it
        js = i + 1 + np.flatnonzero(outside[i + 1:])
        if js.size:
            linked = js[_sine_distances(bases[i], bases[js]) <= CLUSTER_LINK]
            comp[np.isin(comp, comp[linked])] = comp[i]
    order = np.argsort(comp, kind="stable")  # members stay in tail order
    groups = np.split(order, np.flatnonzero(np.diff(comp[order])) + 1)
    return sorted((g.tolist() for g in groups), key=lambda g: (len(g), g[-1]), reverse=True)


def _extrapolate_projector(bases: np.ndarray, labels: np.ndarray,
                           rank: int) -> np.ndarray:
    """Accelerate the limit of a drifting subspace family.

    Candidate subspaces of unipotent-type sequences drift like 1/n, far too
    slowly for a 40-term tail; their projector entries are fitted as
    polynomials in x = 1/n and read off at x = 0.  Exponentially settling
    families (detected by the drift decaying much faster than 1/n) instead
    get a geometric tail-sum correction.  Both branches fall back to the
    last member when they would overshoot the observed drift.

    ``bases`` stacks the family's m orthonormal d x rank bases in tail order.
    """
    m, d = bases.shape[:2]
    last = bases[-1]
    if rank == 0 or rank == d or m < 4:
        return last
    drift = grassmann_distance(bases[m // 2], last)
    if drift < 1e-11:
        return last
    projs = bases @ np.swapaxes(bases, 1, 2)

    def to_basis(p0):
        p0 = 0.5 * (p0 + p0.T)
        w, v = np.linalg.eigh(p0)
        return v[:, np.argsort(w)[-rank:]]

    # Per-step decay ratios tell geometric (ratio bounded below 1) apart
    # from 1/n-type drift (ratio creeping up to 1).  Each step is the
    # Frobenius norm `norm` takes: the root of one BLAS dot of the raveled
    # difference with itself.
    diffs = np.diff(projs[max(0, m - 7):], axis=0).reshape(-1, d * d)
    steps = np.sqrt(_dots(diffs, diffs))
    ratios = steps[1:] / np.maximum(steps[:-1], 1e-300)
    if len(ratios) >= 2 and np.max(ratios) <= 0.85:
        q = float(np.median(ratios))
        d1 = projs[-1] - projs[-2]
        basis = to_basis(projs[-1] + d1 * (q / (1.0 - q)))
        step = grassmann_distance(bases[-2], last)
        if grassmann_distance(basis, last) <= 5.0 * step + 1e-9:
            return basis
        return last

    p0 = _fit_at_zero(1.0 / labels, projs, int(min(6, m - 3)))
    basis = to_basis(p0)
    if grassmann_distance(basis, last) > max(5.0 * drift, 1e-6):
        return last
    return basis


def _fit_at_zero(x: np.ndarray, projs: np.ndarray, deg: int) -> np.ndarray:
    """The symmetric matrix of constant terms of the degree-`deg` least-squares
    polynomials in `x` through each entry of the stacked ``projs``.

    Each upper entry is `numpy.polynomial.polynomial.polyfit`'s own
    arithmetic: the column-scaled Vandermonde (built once here) and one
    single-column `lstsq` call with ``rcond = len(x) * eps``.  A multi-column
    `lstsq` would solve all entries in one call but moves the answers by
    about 3e-15 relative.
    """
    lhs = np.polynomial.polynomial.polyvander(x, deg).T
    scl = np.sqrt(np.square(lhs).sum(1))
    scl[scl == 0] = 1
    lhs = lhs.T / scl
    rcond = len(x) * np.finfo(x.dtype).eps
    d = projs.shape[1]
    p0 = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            c, _, rank, _ = np.linalg.lstsq(lhs, projs[:, i, j], rcond)
            if rank != deg + 1:
                warnings.warn("The fit may be poorly conditioned",
                              np.exceptions.RankWarning, stacklevel=2)
            p0[i, j] = p0[j, i] = c[0] / scl[0]
    return p0


def _subspace_limit(seq: MatrixSequence, bases: np.ndarray, rank: int):
    """Cluster the tail candidates ``bases`` (one per tail term, in order),
    extrapolate the dominant family, intersect the rest.  Returns
    (subspace, converged, dominant_indices)."""
    d = seq.dim
    n = len(seq)
    indices = range(n // 2, n)
    if rank == 0:
        return Subspace.zero(d), True, tuple(indices)
    if rank == d:
        return Subspace.full(d), True, tuple(indices)
    clusters = _cluster_by_linkage(bases)
    labels = seq.labels
    limits = []
    for members in clusters:
        if len(members) < max(3, len(indices) // 10):
            continue
        members = np.asarray(members)
        fam_labels = labels[n // 2 + members]
        limits.append((members, _extrapolate_projector(bases[members], fam_labels, rank)))
    if not limits:
        raise ConvergenceError("no stable subspace family in the tail",
                               clusters=[len(c) for c in clusters])
    dominant_members, dominant_basis = limits[0]
    dominant_indices = tuple((n // 2 + dominant_members).tolist())
    if len(limits) == 1 and len(dominant_members) >= 0.9 * len(indices):
        return Subspace(basis=dominant_basis), True, dominant_indices
    # No single limit: the stable set is the intersection of the
    # subsequential limit subspaces.
    inter = _intersect_bases([b for _, b in limits])
    return Subspace(basis=inter), False, dominant_indices


def _intersect_bases(bases: list[np.ndarray]) -> np.ndarray:
    d = bases[0].shape[0]
    stack = np.vstack([np.eye(d) - b @ b.T for b in bases])
    _, sv, vt = np.linalg.svd(stack)
    sv = np.concatenate([sv, np.zeros(d - len(sv))])
    keep = sv <= INTERSECTION_TOL * max(sv[0], 1.0)
    return vt[keep].T


def _restricted_norms(terms: np.ndarray, bases: np.ndarray) -> float:
    """Largest operator norm of ``terms[i]`` restricted to the span of ``bases[i]``."""
    if bases.shape[2] == 0:
        return 0.0
    return float(np.max(np.linalg.svd(terms @ bases, compute_uv=False)[:, 0]))


def _modulus(terms: np.ndarray, bases: np.ndarray) -> float:
    worst = _restricted_norms(terms, bases)
    return float("inf") if worst == 0.0 else 1.0 / worst


# ---------------------------------------------------------------------------
# the three subspace detectors


def _gate(seq: MatrixSequence):
    _require_usable(seq)
    if not is_divergent(seq):
        raise EquicontinuousError(
            "sequence is not divergent (equicontinuous trend); no stable "
            "subspace analysis applies"
        )


def _detected(seq: MatrixSequence, bases, rank: int,
              kind: StabilityKind = StabilityKind.STABLE) -> ASResult:
    """Subspace limit of the leading `rank` columns of the tail terms'
    candidate bases (``bases`` stacks the d x d basis of every term)."""
    sub, conv, used = _subspace_limit(seq, bases[_tail_slice(len(seq)), :, :rank], rank)
    used_idx = list(used)
    return ASResult(
        subspace=sub,
        kind=kind,
        modulus=_modulus(seq.terms[used_idx], bases[used_idx, :, :rank]),
        converged=conv,
        subsequence_indices=used,
    )


def _cartan_detected(seq: MatrixSequence, rank: int,
                     kind: StabilityKind = StabilityKind.STABLE) -> ASResult:
    """`_detected` on the right-singular directions, computed once per
    sequence for each (rank, kind); a raised error is not kept."""
    limits = seq._cartan_limits
    if (rank, kind) not in limits:
        # ascending D puts the bounded directions first; R rows are the
        # right-singular vectors, so R^T columns realize R^{-1}(R^i x {0}).
        limits[rank, kind] = _detected(seq, np.swapaxes(seq.cartan.R, 1, 2), rank, kind)
    return limits[rank, kind]


def as_subspace_kak(seq: MatrixSequence, bound_threshold: float = BOUND_THRESHOLD) -> ASResult:
    """Stable subspace via Cartan factors: the limit of R_n^{-1} applied to
    the span of the non-growing singular directions."""
    _gate(seq)
    growing = _growing_flags(seq.cartan.D, bound_threshold, GROWTH_RATIO)
    return _cartan_detected(seq, int(np.sum(~growing)))


def as_subspace_ellipsoid(seq: MatrixSequence,
                          bound_threshold: float = BOUND_THRESHOLD) -> ASResult:
    """Stable subspace via the surviving axes of the ellipsoids
    {x : |x| <= 1 and |A_n x| <= 1} = U intersect A_n^{-1} U.

    The axis along eigenvector v of A_n^T A_n has half-length
    min(1, eigenvalue^{-1/2}); axes whose length collapses to zero drop out
    of the Hausdorff limit and the stable space is the span of the rest.
    Spectral route (eigh of the normalized Gram) kept deliberately separate
    from the SVD route of `as_subspace_kak`.
    """
    _gate(seq)
    t = seq.terms
    op = seq.norms[:, None]
    mu, vecs = np.linalg.eigh(_grams(t) / (op * op)[:, :, None])
    sig = np.sqrt(np.maximum(mu, 0.0)) * op  # ascending, equals singular values
    growing = _growing_flags(sig, bound_threshold, GROWTH_RATIO)
    return _detected(seq, vecs, int(np.sum(~growing)))


def as_subspace_graph(seq: MatrixSequence) -> ASResult:
    """Stable subspace via graphs: orthonormalize Gr(A_n) = {(x, A_n x)} in
    R^{2d}, watch which first-factor singular directions of the limit keep
    mass, and project them back down.

    A direction with exploding image tilts the graph vertical, so its
    first-factor singular value collapses like 1/|A_n x|; kept directions
    stay bounded away from zero (at least 1/sqrt(1 + C^2) for image bound C).
    """
    _gate(seq)
    n = len(seq)
    d = seq.dim
    graphs = np.concatenate([np.broadcast_to(np.eye(d), seq.terms.shape), seq.terms], axis=1)
    q, _ = np.linalg.qr(graphs)
    u, s, _ = np.linalg.svd(q[:, :d, :])  # s descending in [0, 1]
    mid, last = s[n // 2], s[-1]
    collapsing = (last < 0.25) & (last < 0.6 * mid)
    return _detected(seq, u, int(np.sum(~collapsing)))


def as_all_oracles(seq: MatrixSequence,
                   bound_threshold: float = BOUND_THRESHOLD) -> dict[str, ASResult]:
    """Run every subspace detector and cross-fill the agreement table."""
    results = {
        "kak": as_subspace_kak(seq, bound_threshold),
        "ellipsoid": as_subspace_ellipsoid(seq, bound_threshold),
        "graph": as_subspace_graph(seq),
    }
    names = list(results)
    out = {}
    for name in names:
        agreement = {
            other: results[name].subspace.distance(results[other].subspace)
            for other in names
            if other != name
        }
        out[name] = replace(results[name], oracle_agreement=agreement)
    return out


# ---------------------------------------------------------------------------
# brute force oracle


@dataclass(frozen=True)
class BruteForceScores:
    """Direct discretization of approximate stability.

    ``scores[k, r]`` is max over the tail of the sequence of the cheapest
    image norm achievable from a sampled unit direction k perturbed within
    radius ``radii[r]``.  A direction is approximately stable when its score
    stays bounded as the radius shrinks (down to the stated resolution), and
    strongly so when the score heads to zero.  `complete` is False when the
    evaluation budget ran out first.
    """

    directions: np.ndarray
    radii: tuple
    scores: np.ndarray
    complete: bool

    def score_of(self, v) -> float:
        """Score, at the smallest radius, of the sampled direction nearest to v."""
        u = np.asarray(v, float)
        u = u / np.linalg.norm(u)
        k = int(np.argmax(np.abs(self.directions @ u)))
        return float(self.scores[k, -1])


def sphere_points(d: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy unit directions (count x d).

    d=2 equally spaced angles, d=3 Fibonacci sphere, d>=4 seeded Gaussian.
    """
    if d == 2:
        th = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.column_stack([np.cos(th), np.sin(th)])
    if d == 3:
        i = np.arange(count, dtype=float)
        z = 1.0 - 2.0 * (i + 0.5) / count
        phi = i * np.pi * (3.0 - np.sqrt(5.0))
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# Cap minima are solved a chunk of whole directions at a time, each chunk
# holding about this many (direction, radius, tail term) problems, so
# memory stays bounded for any number of directions.
_CAP_CHUNK = 4096


def _nonneg(x: np.ndarray) -> np.ndarray:
    """``max(0.0, x)`` elementwise, as Python's `max` resolves it."""
    return np.where(x > 0.0, x, 0.0)


def _sphere_quadratic(beta: np.ndarray, gamma: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _dots(y, beta * y) + _dots(2.0 * gamma, y)


def _y_norm2(beta: np.ndarray, gamma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return np.sum((gamma / (beta + mu[:, None])) ** 2, axis=-1)


def _min_quadratic_on_sphere(beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """min of y^T diag(beta) y + 2 gamma . y over the unit sphere, for each
    row of the (problems x m) stacks beta (ascending) and gamma.

    Trust-region secular equation: y(mu) = -gamma / (beta + mu) with
    |y(mu)| = 1 and mu >= -beta_min, including the hard case where gamma
    has no component on the bottom eigenspace.  Every problem bisects until
    its own stopping test holds; the rest of the batch is masked out.
    """
    b0 = beta[:, 0]
    gnorm = np.sqrt(_dots(gamma, gamma))
    out = b0.copy()  # gamma = 0: the bottom eigenvalue
    lo, hi = -b0, -b0 + gnorm
    eps = 1e-14 * np.maximum(1.0, np.abs(b0))
    with np.errstate(divide="ignore", invalid="ignore"):
        hard = (gnorm != 0.0) & (_y_norm2(beta, gamma, lo + eps) < 1.0)
        if np.any(hard):
            # pad the limit solution along the bottom eigendirection
            b, g, e = beta[hard], gamma[hard], eps[hard, None]
            denom = b - b[:, :1]
            y = np.where(denom > e, -g / np.where(denom > e, denom, 1.0), 0.0)
            y[np.arange(len(y)), np.argmin(b, axis=1)] += np.sqrt(_nonneg(1.0 - _dots(y, y)))
            out[hard] = _sphere_quadratic(b, g, y)
        rows = np.flatnonzero((gnorm != 0.0) & ~hard)
        idx, b, g, l, h = rows, beta[rows], gamma[rows], lo[rows], hi[rows]
        for _ in range(200):
            mid = 0.5 * (l + h)
            above = _y_norm2(b, g, mid) > 1.0
            l, h = np.where(above, mid, l), np.where(above, h, mid)
            done = h - l <= 1e-15 * np.maximum(1.0, np.abs(h))
            if np.any(done):  # most steps finish no problem: skip the compaction
                lo[idx[done]], hi[idx[done]] = l[done], h[done]
                idx, b, g, l, h = idx[~done], b[~done], g[~done], l[~done], h[~done]
                if not idx.size:
                    break
        lo[idx], hi[idx] = l, h  # out of steps
        b, g = beta[rows], gamma[rows]
        y = -g / (b + (0.5 * (lo[rows] + hi[rows]))[:, None])
        ny = np.sqrt(_dots(y, y))[:, None]
        out[rows] = _sphere_quadratic(b, g, np.where(ny > 0, y / ny, y))
    return out


def _cap_minima(spectra: tuple, dirs: np.ndarray, radii: np.ndarray,
                start: int, stop: int) -> np.ndarray:
    """min |A_n w| over unit w with |w - v| <= r, for the (direction v,
    radius r) pairs start..stop-1 in row-major order (pairs x tail terms).

    Exact: interior candidates are the eigendirections falling inside the
    cap, and the cap boundary reduces to a quadratic-on-a-sphere problem in
    v-perp coordinates.  Random perturbation sampling cannot do this job:
    for exponentially divergent sequences the bounded-image region near the
    stable hyperplane is a slab of width ~ 1/|A| that samples never hit.
    """
    vals, vecs, grams = spectra
    nr = len(radii)
    pair = np.arange(start, stop)
    k0 = start // nr
    v = dirs[k0:(stop - 1) // nr + 1]
    kk = pair // nr - k0
    c = (1.0 - 0.5 * radii * radii)[pair % nr]
    col = v[:, None, :, None]
    base = ((v[:, None, None, :] @ grams) @ col)[..., 0, 0]
    inside = np.abs(np.swapaxes(vecs, 1, 2) @ col)[kk, ..., 0] >= c[:, None, None]
    best = np.min(np.where(inside, vals, np.inf), axis=2)
    bound = base[kk]
    d = v.shape[1]
    cap = (c < 1.0) & (d > 1)  # on S^0 the cap has no boundary to search
    if np.any(cap):
        q, _ = np.linalg.qr(np.concatenate(
            [col[:, 0], np.broadcast_to(np.eye(d), (len(v), d, d))], axis=2))
        perp = q[:, None, :, 1:d]  # orthonormal basis of v-perp
        perp_t = np.swapaxes(perp, 2, 3)
        b_mat = (perp_t @ grams) @ perp
        g_vec = perp_t @ (grams @ col)
        kc, cc = kk[cap], c[cap]
        s = np.sqrt(_nonneg(1.0 - cc * cc))
        beta, w_mat = np.linalg.eigh((s * s)[:, None, None, None] * b_mat[kc])
        gamma = np.swapaxes(w_mat, 2, 3) @ ((cc * s)[:, None, None, None] * g_vec[kc])
        quad = _min_quadratic_on_sphere(beta.reshape(-1, d - 1), gamma.reshape(-1, d - 1))
        bound[cap] = quad.reshape(beta.shape[:2]) + (cc * cc)[:, None] * base[kc]
    return np.sqrt(_nonneg(np.where(bound < best, bound, best)))


def _min_image_on_cap(eigvals: np.ndarray, eigvecs: np.ndarray, gram: np.ndarray,
                      v: np.ndarray, r: float) -> float:
    """min |A w| over unit w with |w - v| <= r, given eigh(A^T A): the
    one-pair, one-term case of `_cap_minima`."""
    spectra = (eigvals[None], eigvecs[None], gram[None])
    return float(_cap_minima(spectra, np.asarray(v)[None], np.array([r], float), 0, 1)[0, 0])


def _grams(terms: np.ndarray) -> np.ndarray:
    """Stacked A^T A; entries past about 1e154 overflow it, which raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        grams = np.swapaxes(terms, 1, 2) @ terms
    if not np.isfinite(grams).all():
        raise NumericalError("a term's Gram matrix A^T A overflows the floating-point range")
    return grams


def _tail_spectra(seq: MatrixSequence) -> tuple:
    """(eigenvalues, eigenvectors, Gram) of A_n^T A_n, stacked over the tail."""
    tail = seq.terms[_tail_slice(len(seq))]
    grams = _grams(tail)
    vals, vecs = np.linalg.eigh(grams)
    return vals, vecs, grams


def _cap_scores(spectra: tuple, dirs: np.ndarray, radii, count: int) -> np.ndarray:
    """m(v, r) = max over the tail of the cap minimum, for the first `count`
    (direction, radius) pairs in row-major order."""
    radii = np.asarray(radii, dtype=float)
    step = len(radii) * max(1, _CAP_CHUNK // (len(radii) * len(spectra[0])))
    scores = np.empty(max(count, 0))
    for start in range(0, count, step):
        stop = min(count, start + step)
        scores[start:stop] = np.max(_cap_minima(spectra, dirs, radii, start, stop), axis=1)
    return scores


def brute_force_as(seq: MatrixSequence, directions: int = 64,
                   radii: tuple = (0.3, 0.1, 0.03, 0.01),
                   budget: int = 20_000_000, seed: int = 0) -> BruteForceScores:
    """Score sampled directions by the best bounded-image witness nearby.

    For each unit direction v and radius r, m(v, r) = max over the last half
    of the sequence of the exact min over unit w with |w - v| <= r of
    |A_n w|.  The witness varies with n, matching the definition of a
    stable vector sequence.
    """
    _require_usable(seq)
    dirs = sphere_points(seq.dim, directions, seed)
    radii = tuple(sorted(radii, reverse=True))
    spectra = _tail_spectra(seq)
    # Each (direction, radius) score costs one cap minimum per tail term;
    # the budget pays for the first `done` of them in row-major order.
    total = directions * len(radii)
    done = min(total, budget // len(spectra[0]))
    scores = np.full(total, np.nan)
    scores[:max(done, 0)] = _cap_scores(spectra, dirs, radii, done)
    scores = scores.reshape(directions, len(radii))
    complete = done == total
    return BruteForceScores(directions=dirs, radii=radii, scores=scores,
                            complete=complete)


def brute_force_score(seq: MatrixSequence, v,
                      radii: tuple = (0.3, 0.1, 0.03, 0.01)) -> np.ndarray:
    """m(v, r) for one exact direction v, per radius (no direction grid)."""
    _require_usable(seq)
    u = np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    radii = sorted(radii, reverse=True)
    return _cap_scores(_tail_spectra(seq), u[None], radii, len(radii))


# ---------------------------------------------------------------------------
# strongly stable space and the Lorentz structure check


def spas_subspace(seq: MatrixSequence, bound_threshold: float = BOUND_THRESHOLD) -> ASResult:
    """Strongly approximately stable space: the limit of the right-singular
    directions whose singular values decay to zero.  `lorentz_as_check`
    checks its Lorentz structure (the isotropic orthogonal of the stable
    hyperplane)."""
    _gate(seq)
    decaying = _decaying_flags(seq.cartan.D, bound_threshold, GROWTH_RATIO)
    return _cartan_detected(seq, int(np.sum(decaying)), StabilityKind.STRONGLY_STABLE)


@dataclass(frozen=True)
class LorentzStabilityReport:
    """Outcome of the lightlike-hyperplane structure check, clause by clause."""

    passed: bool
    failures: tuple
    stable: ASResult
    strongly_stable: ASResult
    kernel_dim: int
    modulus: float

    def __bool__(self):
        return self.passed


def lorentz_as_check(form: QuadraticForm, seq: MatrixSequence,
                     bound_threshold: float = BOUND_THRESHOLD) -> LorentzStabilityReport:
    """Verify the Lorentz stable-subspace structure of a divergent isometry
    sequence: a converged stable hyperplane, lightlike with one-dimensional
    kernel, whose orthogonal is the isotropic strongly stable line.

    Preconditions (isometry terms, Lorentz signature, divergence) raise;
    structural violations come back as named failures in the report.
    """
    require_isometry(form, seq.terms, tol=1e-8)
    require_lorentz(form)
    failures = []
    stable = as_subspace_kak(seq, bound_threshold)
    strongly = spas_subspace(seq, bound_threshold)
    d = seq.dim
    if not stable.converged:
        failures.append("stable-subspace-not-converged")
    if stable.subspace.dim != d - 1:
        failures.append(f"stable-dimension-{stable.subspace.dim}-not-{d - 1}")
    kernel = degenerate_kernel(form, stable.subspace, tol=1e-6)
    if stable.subspace.dim == d - 1:
        g = stable.subspace.basis.T @ form.gram @ stable.subspace.basis
        eig = np.linalg.eigvalsh(g)
        scale = max(np.max(np.abs(eig)), 1.0)
        negatives = int(np.sum(eig < -1e-6 * scale))
        if negatives or kernel.dim != 1:
            failures.append("stable-hyperplane-not-lightlike")
    perp = orthogonal_complement(form, stable.subspace)
    if strongly.subspace.dim != 1 or not strongly.subspace.isclose(perp, tol=AGREEMENT_TOL):
        failures.append("spas-not-orthogonal-of-stable")
    else:
        ray = strongly.subspace.basis[:, 0]
        if abs(evaluate(form, ray, ray)) > 1e-6:
            failures.append("spas-not-isotropic")
    return LorentzStabilityReport(
        passed=not failures,
        failures=tuple(failures),
        stable=stable,
        strongly_stable=strongly,
        kernel_dim=kernel.dim,
        modulus=stable.modulus,
    )
