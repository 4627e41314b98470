"""Boundary dynamics: north-south certificates, orbit limits and limit sets.

The boundary in question is the projectivized isotropic cone of a Lorentz
form.  Divergent isometry sequences push any point of the unit-timelike
hyperboloid sheet out to a single boundary ray; sampling far-out words of a
finitely generated isometry group and clustering where they send a base
point estimates the group's limit set, whose cardinality classifies the
group (one point: parabolic; two: hyperbolic; more: non-elementary).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .cartan import require_lorentz
from .errors import (
    BudgetError,
    CertificateError,
    ConvergenceError,
    DimensionError,
    EquicontinuousError,
    NotIsotropicError,
    NumericalError,
    PreconditionError,
    SingularMatrixError,
)
from .minkowski import (
    ISOTROPY_TOL,
    QuadraticForm,
    _as_vector,
    _dots,
    canonical_ray,
    canonical_rays,
    evaluate,
    project_rows_to_cone,
    project_to_cone,
    require_isometry,
)
from .stability import (
    MatrixSequence,
    _norms_diverge,
    as_subspace_kak,
    sphere_points,
)

# Default clustering angle for limit-set estimates (5 degrees).
CLUSTER_ANGLE = np.deg2rad(5.0)
# Words below this operator norm are not "far out" enough to see the boundary.
WORD_DIVERGENCE_THRESHOLD = 1e3
# Most samples x (depth + d^2) one limit-set estimate may draw and build:
# its draws, letter picks and word stack peak at up to about 0.1 KB a unit
# (96 B measured for one word of 100,000 letters).
WORD_BUDGET = 8_000_000
# Relative margin by which a norm bound must clear the divergence threshold
# to settle a word without LAPACK; the bounds' own roundoff is of order d^2 eps.
_BOUND_MARGIN = 1e-8
# Default projective grid size for north-south certificates.
GRID_POINTS = 2000


@dataclass(frozen=True)
class BoundaryPoint:
    """Isotropic ray: deterministic unit representative of a projective
    point of the light cone."""

    ray: np.ndarray

    def __post_init__(self):
        r = _as_vector(self.ray)
        if abs(np.linalg.norm(r) - 1.0) > 1e-9:
            raise PreconditionError("boundary ray must be a unit vector")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "ray", r)

    @classmethod
    def from_vector(cls, form: QuadraticForm, v) -> "BoundaryPoint":
        r = canonical_ray(_as_vector(v, form.dim))
        if abs(evaluate(form, r, r)) > ISOTROPY_TOL:
            raise NotIsotropicError("ray is not on the isotropic cone")
        return cls(ray=r)

    @classmethod
    def from_near_cone(cls, form: QuadraticForm, v) -> "BoundaryPoint":
        """Snap a nearly isotropic direction onto the cone first."""
        return cls(ray=project_to_cone(form, v))

    def angle_to(self, other: "BoundaryPoint") -> float:
        return ray_angle(self.ray, other.ray)


def ray_angle(u, v) -> float:
    """Angular distance between projective rays (antipodal-safe), exact to a
    few eps (`_ray_angles`)."""
    return float(_ray_angles(np.asarray(u, dtype=float), np.asarray(v, dtype=float)))


def _ray_angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`ray_angle` of the rows of `u` and `v`, broadcast against each other.

    On unit rows, with v flipped to u's side, 2 atan2(|u - v|, |u + v|)
    (Kahan, "How Futile are Mindless Assessments of Roundoff in
    Floating-Point Computation?", 2006): exact to a few eps at every
    angle, where the inverse cosine of the cosine cannot resolve angles
    under 1e-8.  A ray and its antipode are at angle 0.
    """
    u = u / np.sqrt(_dots(u, u))[..., None]
    v = v / np.sqrt(_dots(v, v))[..., None]
    v = np.where((_dots(u, v) < 0)[..., None], -v, v)
    diff, total = u - v, u + v
    return 2 * np.arctan2(np.sqrt(_dots(diff, diff)), np.sqrt(_dots(total, total)))


@dataclass(frozen=True)
class HyperbolicPoint:
    """Point of the chosen sheet of the unit-timelike hyperboloid:
    <v, v> = -1 with v_1 > 0."""

    v: np.ndarray
    form: QuadraticForm

    def __post_init__(self):
        u = _as_vector(self.v, self.form.dim)
        if abs(evaluate(self.form, u, u) + 1.0) > 1e-10:
            raise PreconditionError("point is not on the unit-timelike hyperboloid")
        if not u[0] > 0:
            raise PreconditionError("point is on the wrong sheet (needs v_1 > 0)")
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "v", u)

    @classmethod
    def from_timelike(cls, form: QuadraticForm, v) -> "HyperbolicPoint":
        """The point on the ray of timelike v.  v is first scaled by the power
        of two that brings its largest entry into [0.5, 1): exactly, so
        <v, v> neither underflows nor overflows, and the point's bits are
        those of the unscaled formula wherever that one neither does."""
        u = _as_vector(v, form.dim)
        u = np.ldexp(u, -np.frexp(np.max(np.abs(u)))[1])
        q = evaluate(form, u, u)
        if q >= 0:
            raise PreconditionError("vector is not timelike")
        u = u / np.sqrt(-q)
        if u[0] < 0:
            u = -u
        return cls(v=u, form=form)


def act_boundary(form: QuadraticForm, A, b: BoundaryPoint) -> BoundaryPoint:
    """Image of a boundary ray under an isometry."""
    m = require_isometry(form, A)
    return BoundaryPoint(ray=canonical_ray(m @ _as_vector(b.ray, form.dim)))


def hyperbolic_orbit_limit(form: QuadraticForm, seq: MatrixSequence,
                           s: HyperbolicPoint) -> BoundaryPoint:
    """Boundary limit of the orbit A_n . s of a hyperboloid point.

    The orbit must leave every compact set (`is_divergent`'s test on the
    tail's orbit norms); its directions must settle into a single angular
    cluster of radius 0.01 over the tail, else a ConvergenceError carries
    the cluster breakdown.  The limit is snapped onto the cone.  By the
    section-independence fact the result does not depend on s.
    """
    require_isometry(form, seq.terms)
    require_lorentz(form)
    orbit = seq.tail @ _as_vector(s.v, form.dim)
    norms = np.linalg.norm(orbit, axis=1)
    if not _norms_diverge(norms, len(seq)):
        raise EquicontinuousError(
            "orbit remains in a bounded region; sequence acts equicontinuously "
            "at the base point"
        )
    tail_rays = orbit / norms[:, None]
    last = tail_rays[-1]
    if np.max(_ray_angles(tail_rays, last)) > 1e-2:
        clusters = _cluster_rays(tail_rays, 1e-2)
        raise ConvergenceError(
            "orbit direction oscillates between boundary clusters",
            clusters=[(c.weight, c.centroid.ray.tolist()) for c in clusters],
        )
    return BoundaryPoint.from_near_cone(form, last)


def north_south_certificate(form: QuadraticForm, seq: MatrixSequence,
                            u_angle: float, v_angle: float,
                            grid: int = GRID_POINTS) -> int:
    """Smallest index N such that every grid direction outside the U-cone of
    the stable projective subspace lands, under every A_n with n >= N,
    inside the V-cone of the inverse sequence's stable subspace.

    Angles are radians, finite and non-negative, and some grid direction
    must lie outside the U-cone.  The terms are tested from the last one
    down, and the scan stops at the first that fails: N is one past it.
    Raises CertificateError when no such N exists within the sequence.

    A grid direction p is a probe when |p B|^2 < cos^2(u_angle) |p|^2, and
    an image v = A_n p is inside the V-cone when |v C|^2 >= cos^2(v_angle)
    |v|^2 (B and C the cones' bases): one cosine test per probe, with no
    angle formed.  cos^2 is -inf from pi/2 on, so past pi/2 no grid
    direction is a probe and every image is inside.
    """
    inverse = seq.inverse()  # first: it refuses a singular head term
    if form.dim != seq.dim:
        raise DimensionError(f"the form has dimension {form.dim}, the sequence {seq.dim}")
    if not (np.isfinite(u_angle) and np.isfinite(v_angle) and u_angle >= 0 and v_angle >= 0):
        raise PreconditionError("cone angles must be finite and non-negative")
    if grid < 1:
        raise PreconditionError("the grid needs at least one point")
    stable = as_subspace_kak(seq)
    unstable = as_subspace_kak(inverse)
    if not (stable.converged and unstable.converged):
        raise ConvergenceError("stable subspaces of the sequence or its inverse "
                               "did not converge")
    cu2, cv2 = (np.cos(a) ** 2 if a < np.pi / 2 else -np.inf for a in (u_angle, v_angle))
    pts = sphere_points(form.dim, grid)
    proj = pts @ stable.subspace.basis
    probes = pts[_dots(proj, proj) < cu2 * _dots(pts, pts)]
    if not len(probes):
        raise PreconditionError("no grid direction lies outside the U-cone")
    dst = unstable.subspace.basis
    # one term at a time: a stacked (terms x probes x d) pass is no faster
    # and its temporaries raise the peak memory by megabytes
    for n in range(len(seq) - 1, -1, -1):
        images = probes @ seq.terms[n].T
        proj = images @ dst
        if not np.all(_dots(proj, proj) >= cv2 * _dots(images, images)):
            break
    else:
        return 0
    if n + 1 >= len(seq):
        raise CertificateError("insufficient length: expansion never traps the "
                               "grid within the target cone")
    return n + 1


class CardinalityClass(enum.Enum):
    ONE = "one"
    TWO = "two"
    LARGE = "large"


class GroupClass(enum.Enum):
    ELEMENTARY_PARABOLIC = "elementary_parabolic"
    ELEMENTARY_HYPERBOLIC = "elementary_hyperbolic"
    NON_ELEMENTARY = "non_elementary"


@dataclass(frozen=True)
class RayCluster:
    centroid: BoundaryPoint
    weight: int
    angular_radius: float


@dataclass(frozen=True)
class LimitSetEstimate:
    clusters: tuple
    cardinality_class: CardinalityClass
    words_sampled: int
    divergent_words: int
    min_intercluster_gap: float | None

    @property
    def points(self) -> tuple:
        return tuple(c.centroid for c in self.clusters)


def _cluster_rays(rays: np.ndarray, angle: float) -> list[RayCluster]:
    """Greedy angular clustering with antipodal identification: each ray
    joins the first cluster whose normalized running sum is within `angle`,
    aligned with it, else starts a new cluster.

    One ray at a time, against every centroid at once.  `limit_set` calls
    this on its samples only when their distinct rays fail the separation
    certificate of `_certified_groups`; otherwise the certified groups
    give the same clusters (`_cluster_words`).
    """
    rays = np.asarray(rays, dtype=float)
    norms = np.sqrt(_dots(rays, rays))
    sums = np.empty_like(rays)
    # each cluster's normalized sum and its norm, and each ray's cluster
    cents = np.empty_like(rays)
    cnorms = np.empty(len(rays))
    labels = np.empty(len(rays), dtype=int)
    # a ray is within `angle` of a centroid when |cos| >= cos(angle); from
    # pi/2 on every ray is, and at a NaN or negative angle none is
    floor = -np.inf if angle >= np.pi / 2 else np.cos(angle) if angle >= 0 else np.nan
    k = 0
    for m, r in enumerate(rays):
        dots = _dots(cents[:k], r)
        near = np.abs(dots) >= floor * cnorms[:k] * norms[m]
        i = near.argmax() if k else 0
        if k and near[i]:
            sums[i] += r if dots[i] >= 0 else -r
        else:
            i, k = k, k + 1
            sums[i] = r
        labels[m] = i
        c = sums[i] / np.sqrt(sums[i] @ sums[i])
        cents[i], cnorms[i] = c, np.sqrt(c @ c)
    return _collect(sums[:k], np.bincount(labels, minlength=k), rays, labels)


def _collect(sums: np.ndarray, weights: np.ndarray, rays: np.ndarray,
             labels: np.ndarray) -> list[RayCluster]:
    """The clusters of the given running sums and weights, heaviest first
    (in cluster order on a tie); each radius is the largest angle from the
    centroid to a ray labelled with the cluster (a ray may appear once for
    all its copies)."""
    centroids = canonical_rays(sums)
    # a member's sign does not change its angle, so take the rays as drawn
    radii = np.zeros(len(sums))
    np.maximum.at(radii, labels, _ray_angles(centroids[labels], rays))
    clusters = [RayCluster(centroid=BoundaryPoint(ray=c), weight=int(w), angular_radius=float(a))
                for c, w, a in zip(centroids, weights, radii)]
    clusters.sort(key=lambda cl: cl.weight, reverse=True)
    return clusters


def _certified_groups(rows: np.ndarray, first: np.ndarray, samples: int,
                      angle: float) -> tuple[np.ndarray, np.ndarray, list] | None:
    """Each unit row's cluster and sign, and the clusters' first rows,
    under `_cluster_rays` of `samples` copies of the rows, row i first
    drawn at `first[i]`; None when the groups below do not certify them.

    In first-draw order, each row joins the first group whose leader (its
    first row) is within `angle`, else it leads a new group.  Aligned with
    the leader, a group's rows lie in a cap of radius rho (the largest
    angle to the leader), and their diameter D is at most twice the
    largest angle to their normalized mean.  The certificate is:

    - D <= min(angle, pi/2) - tol for every group.  A cap of radius below
      pi/2 is convex, so every running sum of the group's aligned rows is
      within D of each of them: each copy joins its group's cluster, with
      the sign that aligns it with the leader.
    - every row of another group is more than angle + rho + tol from the
      leader, so more than `angle` from every running centroid of the
      group (within rho of the leader): no copy joins another group's
      cluster, each leader opens a cluster of its own, and the clusters
      come in the groups' order.

    tol is 1e-9 of the angle plus 16 (samples + d) eps / sin(angle / 2),
    which bounds the rounding of the greedy pass (an eps of angle per
    addition to a running sum; per cosine test, a few d eps of cosine and
    an ulp of cos(angle), each under eps / sin(angle / 2) of angle) and of
    these angles (`_ray_angles`, exact to a few eps).  So the certified
    groups are exactly the greedy pass's clusters.  The groups are found
    and checked one at a time, in O(rows x groups).
    """
    if not angle > 0:  # a zero, negative or NaN angle is left to the greedy pass
        return None
    top = min(angle, np.pi / 2)
    tol = 1e-9 * top + 16 * (samples + rows.shape[1]) * np.finfo(float).eps / np.sin(top / 2)
    group = np.full(len(rows), -1)
    sign = np.ones(len(rows))
    leaders = []
    while (free := np.flatnonzero(group < 0)).size:
        leaders.append(free[first[free].argmin()])
        lead = rows[leaders[-1]]
        flip = np.where(rows @ lead < 0, -1.0, 1.0)
        aligned = rows * flip[:, None]
        dist = _ray_angles(aligned, lead)
        mine = (group < 0) & (dist <= angle)
        rho = dist[mine].max()
        mean = aligned[mine].sum(axis=0)
        spread = _ray_angles(aligned[mine], mean).max()
        if (2 * min(rho, spread) > top - tol
                or np.any(~mine & (dist <= angle + rho + tol))):
            return None
        group[mine] = len(leaders) - 1
        sign[mine] = flip[mine]
    return group, sign, leaders


def _cluster_words(rows: np.ndarray, at: np.ndarray, angle: float) -> list[RayCluster]:
    """`_cluster_rays(rows[at], angle)`, from the distinct unit rows.

    When `_certified_groups` certifies each row's cluster and sign, the
    clusters' running sums start from their leaders and take every later
    sample in one in-order `np.add.at`: the greedy pass's additions, in its
    order, so the same bits.  Otherwise every sample takes the greedy
    pass, one ray at a time (`_cluster_rays`).
    """
    first = np.full(len(rows), len(at))
    np.minimum.at(first, at, np.arange(len(at)))
    groups = _certified_groups(rows, first, len(at), angle)
    if groups is None:
        return _cluster_rays(rows[at], angle)
    labels, signs, leaders = groups
    later = np.delete(at, first[leaders])  # the samples after each cluster's first
    sums = rows[leaders]
    np.add.at(sums, labels[later], rows[later] * signs[later, None])
    return _collect(sums, np.bincount(labels[at]), rows, labels)


def _snap_clusters(form: QuadraticForm, clusters: list[RayCluster]) -> list[RayCluster]:
    """Snap each centroid onto the cone; one that cannot be snapped stays."""
    rays, failed = project_rows_to_cone(form, [c.centroid.ray for c in clusters])
    return [c if f else RayCluster(centroid=BoundaryPoint(ray=r), weight=c.weight,
                                   angular_radius=c.angular_radius)
            for c, r, f in zip(clusters, rays, failed)]


def _centroid_gaps(clusters: list[RayCluster]) -> np.ndarray:
    """Pairwise angles between the cluster centroids, as `ray_angle`."""
    c = np.array([cl.centroid.ray for cl in clusters])
    return _ray_angles(c[:, None], c[None])


def _merge_close_clusters(form: QuadraticForm, clusters: list[RayCluster],
                          angle: float) -> tuple[list[RayCluster], float | None]:
    """Merge cluster pairs until all centroids are separated by more than
    the clustering angle, closest pair first (the first pair in row-major
    order on a tie).  Also returns the smallest remaining gap, None for a
    single cluster.  After a merge only the merged centroid's gaps are new
    (`_ray_angles` is per pair and symmetric, so each gap keeps its bits)."""
    clusters = list(clusters)
    full = _centroid_gaps(clusters)
    while len(clusters) > 1:
        k = len(clusters)
        gaps = np.where(np.triu(np.ones((k, k), dtype=bool), 1), full, np.inf)
        best = int(np.argmin(gaps))
        if not gaps.flat[best] <= angle:
            return clusters, float(gaps.flat[best])
        i, j = divmod(best, k)
        a, b = clusters[i], clusters[j]
        u = a.centroid.ray * a.weight
        v = b.centroid.ray * b.weight
        if np.dot(a.centroid.ray, b.centroid.ray) < 0:
            v = -v
        centroid = BoundaryPoint(ray=canonical_ray(u + v))
        merged = RayCluster(
            centroid=centroid,
            weight=a.weight + b.weight,
            angular_radius=max(
                a.angular_radius + centroid.angle_to(a.centroid),
                b.angular_radius + centroid.angle_to(b.centroid),
            ),
        )
        keep = [n for n in range(k) if n not in (i, j)]
        clusters = [clusters[n] for n in keep] + _snap_clusters(form, [merged])
        row = _ray_angles(clusters[-1].centroid.ray, np.array([c.centroid.ray for c in clusters]))
        full = np.vstack([np.column_stack([full[np.ix_(keep, keep)], row[:-1]]), row])
        order = sorted(range(k - 1), key=lambda n: clusters[n].weight, reverse=True)
        clusters, full = [clusters[n] for n in order], full[np.ix_(order, order)]
    return clusters, None


def _draw_words(depth: int, g: int, samples: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and letter draws of `samples` words over g generators, as
    one scalar `rng.integers` call per draw takes them: a length from
    [1, depth], then per letter an index into the 2g letters (the first)
    or into the 2g - 1 that do not undo the letter before (each later one).

    Such a call over R values reads 32-bit words x from the generator by
    Lemire's method: it returns (x R) >> 32, unless (x R) mod 2**32 is
    below (2**32 - R) mod R, when it drops x and reads the next word; over
    one value it reads nothing.  So the draws are parsed that way out of
    one block of raw words, as many as the longest words would read.  The
    generator is the caller's own, so the words read past the last draw
    are harmless.
    """
    # raw words read by a length draw and by each later letter (the first
    # reads one), and the letters that read
    lead, later = int(depth > 1), int(g > 1)
    cols = np.arange(depth if later else 1)
    ranges = np.where(cols == 0, 2 * g, 2 * g - 1).astype(np.uint64)
    cutoffs = (2**32 - ranges) % ranges
    raw = rng.integers(0, 2**32, size=samples * (lead + 1 + later * (depth - 1)),
                       dtype=np.uint32)
    while True:
        if later:
            # the raw words read by a word that starts at each raw word,
            # then the walk from word to word, read through a memoryview
            # so that only the visited entries become Python ints
            steps = memoryview(lead + 1 + ((raw * np.uint64(depth)) >> 32))
            starts = []
            p = 0
            for _ in range(samples):
                starts.append(p)
                p += steps[p]
            starts = np.array(starts)
        else:  # every word reads its length and its first letter only
            starts = np.arange(samples) * (lead + 1)
        length_draws = raw[starts] * np.uint64(depth)
        lengths = (length_draws >> 32).astype(int) + 1
        # letters past a word's length are not read, and may lie past the block
        at = starts[:, None] + lead + cols
        draws = raw.take(at, mode="clip") * ranges
        # a one-value range has cutoff 0, so what it did not read is never dropped
        dropped = np.append(
            starts[(length_draws & 0xFFFFFFFF) < (2**32 - depth) % depth],
            at[(cols < lengths[:, None]) & ((draws & 0xFFFFFFFF) < cutoffs)])
        if not dropped.size:
            picks = np.zeros((samples, depth), dtype=int)
            picks[:, :len(cols)] = draws >> 32
            return lengths, picks
        # a dropped word is redrawn from the next one, so parse again without it
        raw = np.append(np.delete(raw, dropped.min()),
                        rng.integers(0, 2**32, size=1, dtype=np.uint32))


def _sample_words(generators: list[np.ndarray], depth: int, samples: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced random words up to the given length over generators and their
    inverses (letter i + g inverts letter i), as (lengths, words, which):
    `words` stacks each distinct word once, and `which[i]` is the row of
    sample i's word.

    Each word draws its length from [1, depth], then its letters: the
    first from all 2g letters, each later one from the 2g - 1 that do not
    undo the letter before.  The stream is that of one scalar
    `rng.integers` call per draw (`_draw_words`).

    The words are the left-to-right products of their letters from the
    identity, built level by level.  With the samples sorted longest first,
    the words alive at a level are a leading slice; each distinct (prefix,
    letter) pair among them, found with a boolean prefixes x 2g table, is
    multiplied once.
    """
    try:
        letters = np.array(list(generators) + [np.linalg.inv(g) for g in generators])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("a generator is singular") from exc
    g = len(generators)
    lengths, picks = _draw_words(depth, g, samples, rng)
    for level in range(1, depth):
        picks[:, level] += picks[:, level] >= (picks[:, level - 1] + g) % (2 * g)
    order = np.argsort(-lengths, kind="stable")
    picks = picks[order]
    # live[level] words, the leading ones in `order`, take a letter at level
    live = samples - np.cumsum(np.bincount(lengths, minlength=depth + 1))
    row = np.empty(samples, dtype=int)  # each sorted sample's row in the result
    done = []  # the words that end at each level, each once
    finished = 0
    # the distinct words built up to this level, and each live word's row in them
    prefixes, parent = np.eye(letters.shape[1])[None], np.zeros(samples, dtype=int)
    level, n = 0, samples
    while n:
        m = live[level + 1]
        pair = parent[:n] * (2 * g) + picks[:n, level]
        seen = np.zeros(len(prefixes) * 2 * g, dtype=bool)
        seen[pair] = True
        pairs = np.flatnonzero(seen)
        parent = (np.cumsum(seen) - 1)[pair]
        stem, letter = np.divmod(pairs, 2 * g)
        prefixes = prefixes[stem] @ letters[letter]
        if m < n:
            ends = np.zeros(len(pairs), dtype=bool)
            ends[parent[m:]] = True
            row[m:n] = finished + (np.cumsum(ends) - 1)[parent[m:]]
            done.append(prefixes[ends])
            finished += len(done[-1])
        level, n = level + 1, m
    which = np.empty_like(row)
    which[order] = row
    return lengths, np.concatenate(done), which


def _word_growth(words: np.ndarray, threshold: float, exact_above: bool) -> np.ndarray:
    """Each word's operator norm sigma_1, or a bound on it that settles
    `sigma_1 < threshold`: an upper bound below threshold (1 - 1e-8), or,
    unless `exact_above`, a lower bound above threshold (1 + 1e-8).  A word
    with a non-finite entry gets inf or NaN.

    The bounds are |A|_F / sqrt(d) <= sigma_1 <= |A|_F, from one stacked dot
    of the flattened words.  The words they leave, and those whose squared
    norms are not normal floats, take sigma_1 from one stacked `svd`.  It
    runs LAPACK on each matrix alone, so every norm it gives is bitwise that
    of an `svd` of the whole stack.
    """
    n, d = len(words), words.shape[-1]
    finite = np.isfinite(words).all(axis=(1, 2))
    flat = words.reshape(n, d * d)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        fro2 = _dots(flat, flat)
        # the bounds' squares stay normal floats, so they keep their precision
        bounded = (fro2 > d * np.finfo(float).tiny) & (fro2 < np.inf)
        upper = np.sqrt(fro2)
        lower = upper / np.sqrt(d)
    below = bounded & (upper < threshold * (1 - _BOUND_MARGIN))
    above = bounded & (lower > threshold * (1 + _BOUND_MARGIN))
    growth = np.where(below, upper, lower)  # the bound that settles each settled word
    exact = finite & ~below & (exact_above | ~above)
    growth[exact] = np.linalg.svd(words[exact], compute_uv=False)[:, 0]
    return growth


def limit_set(form: QuadraticForm, generators, s: HyperbolicPoint, depth: int = 8,
              samples: int = 2000, cluster_angle: float = CLUSTER_ANGLE, seed: int = 0,
              divergence_threshold: float = WORD_DIVERGENCE_THRESHOLD,
              trace: list | None = None) -> LimitSetEstimate:
    """Estimate the limit set of the group generated by `generators`.

    Samples reduced random words up to length `depth`, keeps the ones whose
    operator norm clears `divergence_threshold`, maps the base point s
    through them, and clusters the resulting rays by angle.  Finite sampling
    evidences (never certifies) cardinality, so the estimate also reports
    the smallest gap between clusters.  When `trace` is a list, rows
    (word length, ray..., growth) are appended for CSV export.

    Each distinct word is normed, imaged and snapped onto the cone once;
    the samples take their word's results, in the order they were drawn.
    The greedy clustering of the samples is certified from the distinct
    rays when it can be (`_cluster_words`): grouped in first-draw order,
    every group must have a diameter at most the angle and every other
    ray must lie more than the angle plus the group's radius from its
    leader, each with a margin of 1e-9 of the angle plus the bound on the
    pass's rounding.  Then each sample's cluster and sign are known, and
    the running sums are one in-order `np.add.at` from the leaders, so
    the clusters are bitwise the per-sample pass's; else the samples take
    that pass one at a time (`_cluster_rays`).  That pass joins a ray r to
    a centroid c by the cosine test |c . r| >= cos(angle) |c| |r|, and the
    radii and gaps reported are `ray_angle`'s exact angles.  The clustering
    angle is in radians, finite and positive.
    """
    gens = [require_isometry(form, g) for g in generators]
    if not gens:
        raise PreconditionError("a limit set needs at least one generator")
    require_lorentz(form)
    point = _as_vector(s.v, form.dim)
    if depth < 1 or samples < 1:
        raise PreconditionError("depth and samples must be at least 1")
    if not (np.isfinite(cluster_angle) and cluster_angle > 0):
        raise PreconditionError("the clustering angle must be finite and positive")
    if samples * (depth + form.dim ** 2) > WORD_BUDGET:
        raise BudgetError(f"sampling {samples} words of up to {depth} letters passes the "
                          f"budget: samples x (depth + d^2) must be at most {WORD_BUDGET}")
    # an overflowing word is reported below, so its products need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        lengths, words, which = _sample_words(gens, depth, samples, np.random.default_rng(seed))
    growth = _word_growth(words, divergence_threshold, exact_above=trace is not None)
    overflow = ~np.isfinite(growth[which])
    if overflow.any():
        raise NumericalError(f"a word of length {lengths[np.argmax(overflow)]} overflows "
                             "the floating-point range")
    keep = ~(growth < divergence_threshold)  # a NaN threshold keeps all
    kept = np.flatnonzero(keep[which])
    at = (np.cumsum(keep) - 1)[which[kept]]  # each kept sample's row among the kept words
    with np.errstate(over="ignore", invalid="ignore"):
        images = words[keep] @ point
        overflow = ~np.isfinite(_dots(images, images))[at]
    if overflow.any():
        raise NumericalError(f"the image of a word of length {lengths[kept][np.argmax(overflow)]} "
                             "overflows the floating-point range")
    rays = canonical_rays(images)
    if trace is not None:
        trace.extend((int(lengths[k]), *ray.tolist(), float(growth[which[k]]))
                     for k, ray in zip(kept, rays[at]))
    if not kept.size:
        raise EquicontinuousError(
            "no sampled word exceeded the divergence threshold: group appears "
            "equicontinuous at this depth"
        )
    snapped, failed = project_rows_to_cone(form, rays)
    # a ray too far from the cone to snap is clustered unsnapped
    snapped[failed > 0] = canonical_rays(rays[failed > 0])
    clusters = _cluster_words(snapped, at, cluster_angle)
    # cluster means drift off the cone; snap the representatives back, then
    # merge any pair the snap pushed inside the clustering angle
    clusters, gap = _merge_close_clusters(form, _snap_clusters(form, clusters), cluster_angle)
    k = len(clusters)
    card = CardinalityClass.ONE if k == 1 else (
        CardinalityClass.TWO if k == 2 else CardinalityClass.LARGE)
    return LimitSetEstimate(
        clusters=tuple(clusters),
        cardinality_class=card,
        words_sampled=samples,
        divergent_words=len(kept),
        min_intercluster_gap=gap,
    )


def classify_elementary(estimate: LimitSetEstimate) -> GroupClass:
    """Boundary cardinality one means parabolic, two hyperbolic, more means
    the group is not elementary."""
    if estimate.cardinality_class is CardinalityClass.ONE:
        return GroupClass.ELEMENTARY_PARABOLIC
    if estimate.cardinality_class is CardinalityClass.TWO:
        return GroupClass.ELEMENTARY_HYPERBOLIC
    return GroupClass.NON_ELEMENTARY
