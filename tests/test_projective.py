import math

import numpy as np
import pytest

from lorentzdyn import (
    BoundaryPoint,
    CardinalityClass,
    GroupClass,
    HyperbolicPoint,
    MatrixSequence,
    QuadraticForm,
    act_boundary,
    boost,
    classify_elementary,
    evaluate,
    hyperbolic_orbit_limit,
    limit_set,
    north_south_certificate,
    spas_subspace,
    spatial_rotation,
    split_form_3d,
    split_unipotent,
)
from lorentzdyn.cartan import norm_growth, random_lorentz
from lorentzdyn.errors import (
    CertificateError,
    ConvergenceError,
    EquicontinuousError,
    NotIsometryError,
    NotIsotropicError,
    NumericalError,
    PatternMismatchError,
    PreconditionError,
)
from lorentzdyn.minkowski import (
    _dots,
    canonical_ray,
    canonical_rays,
    project_rows_to_cone,
    project_to_cone,
)
from lorentzdyn import projective
from lorentzdyn.projective import (
    RayCluster,
    _cluster_rays,
    _merge_close_clusters,
    _sample_words,
    ray_angle,
)
from lorentzdyn.stability import MatrixSequence, as_subspace_kak, sphere_points

from .scenarios import (alternating_boost_sequence, boost_sequence, boosts_with_identity,
                        chaos_sequence, conjugated_boost_terms, hyperboloid_point,
                        random_divergent_sequence, rotated_terms, schottky_pair,
                        split_unipotent_sequence)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestBoundaryPoint:
    def test_isotropy_enforced(self, mink3):
        with pytest.raises(NotIsotropicError):
            BoundaryPoint.from_vector(mink3, [1, 0, 0])

    def test_canonical_representative(self, mink3):
        b = BoundaryPoint.from_vector(mink3, [-3.0, -3.0, 0.0])
        assert b.ray == pytest.approx(np.array([1, 1, 0]) / np.sqrt(2))


class TestRayAngle:
    @pytest.mark.parametrize("scale", [1e-40, 1e-20, 1.0, 1e20, 1e40])
    def test_exact_at_every_angle(self, scale):
        # for orthonormal u, w the angle from u to cos t u + sin t w is t to
        # a few eps, from 1e-12 to just under pi/2 (the inverse cosine of
        # the cosine is off by up to 1e-8)
        rng = np.random.default_rng(3)
        eps = np.finfo(float).eps
        for d in (2, 3, 4, 6):
            for t in np.geomspace(1e-12, np.pi / 2 - 1e-9, 200):
                u, w = np.linalg.qr(rng.standard_normal((d, 2)))[0].T * scale
                assert abs(ray_angle(u, np.cos(t) * u + np.sin(t) * w) - t) <= 4 * eps
            # a ray is exactly 0 from itself and from its antipode
            v = rng.standard_normal(d) * scale
            assert ray_angle(v, v) == 0.0 and ray_angle(v, -v) == 0.0


class TestHyperbolicPoint:
    def test_sheet_condition(self, mink3):
        with pytest.raises(PreconditionError):
            HyperbolicPoint(v=np.array([-1.0, 0, 0]), form=mink3)

    def test_from_timelike_normalizes(self, mink3):
        p = HyperbolicPoint.from_timelike(mink3, [-2.0, 0.5, 0.0])
        assert evaluate(mink3, p.v, p.v) == pytest.approx(-1.0)
        assert p.v[0] > 0


class TestActBoundary:
    def test_identity_fixes(self, mink3):
        b = BoundaryPoint.from_vector(mink3, [1, 1, 0])
        assert act_boundary(mink3, np.eye(3), b).angle_to(b) == 0.0

    def test_boost_fixes_its_eigenray(self):
        form2 = QuadraticForm.minkowski(2)
        b = BoundaryPoint.from_vector(form2, [1, 1])
        img = act_boundary(form2, boost(2, 0.7), b)
        assert img.angle_to(b) < 1e-12

    def test_spacelike_rotation_moves_ray(self, mink3):
        rot = spatial_rotation(3, ROT90)
        b = BoundaryPoint.from_vector(mink3, [1, 1, 0])
        img = act_boundary(mink3, rot, b)
        assert img.angle_to(BoundaryPoint.from_vector(mink3, [1, 0, 1])) < 1e-12


class TestOrbitLimit:
    def test_boost_attracts_to_expanding_ray(self, mink3):
        seq = boost_sequence(3, 0.5, 24)
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        lim = hyperbolic_orbit_limit(mink3, seq, s)
        assert lim.angle_to(BoundaryPoint.from_vector(mink3, [1, 1, 0])) < 1e-8
        assert abs(evaluate(mink3, lim.ray, lim.ray)) < 1e-12

    def test_equicontinuous_orbit_rejected(self, mink3):
        rot = spatial_rotation(3, ROT90)
        seq = MatrixSequence.from_powers(rot, 16)
        s = HyperbolicPoint.from_timelike(mink3, [1, 0.3, 0])
        with pytest.raises(EquicontinuousError):
            hyperbolic_orbit_limit(mink3, seq, s)

    @pytest.mark.parametrize("period, count", [(2, 13), (3, 14)])
    def test_orbit_with_a_bounded_subsequence_rejected(self, mink3, period, count):
        # I every 2nd or 3rd term, the sequence ending on boosts
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        with pytest.raises(EquicontinuousError):
            hyperbolic_orbit_limit(mink3, boosts_with_identity(1.0, period, count), s)

    def test_unipotent_orbit_under_split_form(self, split3):
        seq = split_unipotent_sequence(400)
        s = HyperbolicPoint(v=np.array([1.0, 0.0, -1.0]), form=split3)
        lim = hyperbolic_orbit_limit(split3, seq, s)
        assert lim.angle_to(BoundaryPoint.from_vector(split3, [1, 0, 0])) < 5e-3

    def test_oscillating_orbit_reports_clusters(self, mink3):
        seq = alternating_boost_sequence(0.5, 24, first_axis=1)
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        with pytest.raises(ConvergenceError) as err:
            hyperbolic_orbit_limit(mink3, seq, s)
        assert len(err.value.clusters) >= 2

    def test_non_lorentz_form_rejected_after_the_isometry_gate(self):
        # boosts of the (e1, e2) plane preserve diag(-1, -1, 1), signature (2, 1)
        form = QuadraticForm.from_gram(np.diag([-1.0, -1.0, 1.0]))
        cycle = np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0]])  # e0 -> e1 -> e2
        seq = MatrixSequence.from_terms(rotated_terms(cycle, lambda n: boost(3, 0.5 * n), 24))
        s = HyperbolicPoint.from_timelike(form, [1, 0, 0])
        with pytest.raises(PatternMismatchError, match=r"signature \(2, 1\)"):
            hyperbolic_orbit_limit(form, seq, s)
        with pytest.raises(NotIsometryError):
            hyperbolic_orbit_limit(form, boost_sequence(3, 0.5, 24), s)

    def test_section_independence(self, mink3):
        seq = boost_sequence(3, 0.5, 28)
        rng = np.random.default_rng(7)
        limits = [hyperbolic_orbit_limit(mink3, seq, hyperboloid_point(mink3, rng))
                  for _ in range(10)]
        worst = max(limits[0].angle_to(l) for l in limits[1:])
        assert worst < 1e-5

    def test_matches_spas_of_inverse(self, mink3):
        seq = boost_sequence(3, 0.5, 20)
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        lim = hyperbolic_orbit_limit(mink3, seq, s)
        inv_ray = spas_subspace(seq.inverse()).subspace.basis[:, 0]
        assert ray_angle(lim.ray, inv_ray) < 1e-5


class TestNorthSouth:
    def test_boost_certificate(self, mink3):
        seq = boost_sequence(3, 0.5, 24)
        n = north_south_certificate(mink3, seq, np.deg2rad(10), np.deg2rad(10))
        assert 0 <= n < 12

    def test_planar_boost_contraction(self):
        # closed form for a 2x2 diagonal: points 10 degrees off the repelling
        # line land within 10 degrees of the attracting one once
        # e^{-2n} <= tan^2(10deg), i.e. from the second index on
        form2 = QuadraticForm.minkowski(2)
        seq = boost_sequence(2, 1.0, 12)
        n = north_south_certificate(form2, seq, np.deg2rad(10), np.deg2rad(10))
        assert 0 <= n <= 2

    def test_identity_sequence_rejected(self, mink3):
        seq = MatrixSequence.from_terms([np.eye(3)] * 12)
        with pytest.raises(EquicontinuousError):
            north_south_certificate(mink3, seq, 0.1, 0.1)

    def test_chaos_certificate(self, split3):
        seq = chaos_sequence(40)
        n = north_south_certificate(split3, seq, np.deg2rad(5), np.deg2rad(5))
        assert n < 40


class TestLimitSet:
    def test_hyperbolic_cyclic_two_points(self, mink3):
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        est = limit_set(mink3, [boost(3, 1.2)], depth=8, samples=2000, s=s, seed=0)
        assert est.cardinality_class is CardinalityClass.TWO
        assert classify_elementary(est) is GroupClass.ELEMENTARY_HYPERBOLIC
        rays = sorted(c.centroid.ray.tolist() for c in est.clusters)
        expect = np.array([1, 1, 0]) / np.sqrt(2), np.array([1, -1, 0]) / np.sqrt(2)
        assert min(ray_angle(rays[0], e) for e in expect) < 1e-6
        assert min(ray_angle(rays[1], e) for e in expect) < 1e-6

    def test_unipotent_cyclic_one_point(self, split3):
        s = HyperbolicPoint(v=np.array([1.0, 0.0, -1.0]), form=split3)
        est = limit_set(split3, [split_unipotent(5.0)], depth=8, samples=2000,
                        s=s, seed=0)
        assert est.cardinality_class is CardinalityClass.ONE
        assert classify_elementary(est) is GroupClass.ELEMENTARY_PARABOLIC
        assert est.clusters[0].centroid.angle_to(
            BoundaryPoint.from_vector(split3, [1, 0, 0])) < np.deg2rad(5)

    def test_schottky_pair_large(self, mink3):
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        est = limit_set(mink3, list(schottky_pair()), depth=8, samples=2000,
                        s=s, seed=0)
        assert est.cardinality_class is CardinalityClass.LARGE
        assert classify_elementary(est) is GroupClass.NON_ELEMENTARY
        assert len(est.clusters) >= 3

    def test_estimate_invariants(self, mink3):
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        est = limit_set(mink3, list(schottky_pair()), depth=8, samples=1000,
                        s=s, seed=1)
        assert sum(c.weight for c in est.clusters) == est.divergent_words
        for c in est.clusters:
            assert abs(evaluate(mink3, c.centroid.ray, c.centroid.ray)) < 1e-6
        k = len(est.clusters)
        for i in range(k):
            for j in range(i + 1, k):
                gap = est.clusters[i].centroid.angle_to(est.clusters[j].centroid)
                assert gap > np.deg2rad(5.0)
        assert est.min_intercluster_gap > np.deg2rad(5.0)

    def test_minimality_under_generators(self, mink3):
        # applying a generator to each cluster centroid lands near a cluster
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        g = boost(3, 1.2)
        est = limit_set(mink3, [g], depth=8, samples=2000, s=s, seed=0)
        for c in est.clusters:
            img = act_boundary(mink3, g, c.centroid)
            assert min(img.angle_to(other.centroid) for other in est.clusters) < 1e-6

    @pytest.mark.parametrize("angle", [np.nan, -1.0, 0.0, np.inf])
    def test_meaningless_cluster_angle_is_refused(self, mink3, angle):
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        with pytest.raises(PreconditionError, match="clustering angle must be finite"):
            limit_set(mink3, [boost(3, 1.2)], s, cluster_angle=angle)

    def test_equicontinuous_group_rejected(self, mink3):
        rot = spatial_rotation(3, ROT90)
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        with pytest.raises(EquicontinuousError):
            limit_set(mink3, [rot], depth=8, samples=200, s=s, seed=0)

    def test_entropy_flag_coherence(self, mink3, split3):
        # hyperbolic cyclic: two distinct limit clusters; parabolic cyclic:
        # forward and backward stable planes coincide and the single limit
        # cluster is their degenerate kernel ray
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        est = limit_set(mink3, [boost(3, 1.2)], depth=8, samples=2000, s=s, seed=0)
        assert est.clusters[0].centroid.angle_to(est.clusters[1].centroid) > 0.5

        from lorentzdyn import as_subspace_kak
        from lorentzdyn.minkowski import degenerate_kernel
        seq = split_unipotent_sequence(40)
        fwd = as_subspace_kak(seq)
        bwd = as_subspace_kak(seq.inverse())
        assert fwd.subspace.distance(bwd.subspace) < 1e-5
        kernel = degenerate_kernel(split3, fwd.subspace)
        su = HyperbolicPoint(v=np.array([1.0, 0.0, -1.0]), form=split3)
        est = limit_set(split3, [split_unipotent(5.0)], depth=8, samples=2000,
                        s=su, seed=0)
        assert len(est.clusters) == 1
        assert kernel.angle_to_vector(est.clusters[0].centroid.ray) < np.deg2rad(5)


def _outcome(f):
    try:
        return ("ok", f())
    except (PreconditionError, NumericalError) as exc:
        return (type(exc).__name__, str(exc))


def _loop_words(generators, depth, samples, rng):
    """The per-word sampler that the stacked `_sample_words` replaced."""
    letters = list(generators) + [np.linalg.inv(g) for g in generators]
    g = len(generators)
    inverse_of = {i: i + g for i in range(g)} | {i + g: i for i in range(g)}
    for _ in range(samples):
        length = int(rng.integers(1, depth + 1))
        word = np.eye(generators[0].shape[0])
        prev = -1
        for _ in range(length):
            choices = [i for i in range(2 * g) if prev < 0 or i != inverse_of[prev]]
            i = int(choices[rng.integers(0, len(choices))])
            word = word @ letters[i]
            prev = i
        yield length, word


class _RawWords:
    """Stands in for a generator whose raw 32-bit stream is the given words."""

    def __init__(self, words):
        self.words = list(words)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        taken, self.words = self.words[:size], self.words[size:]
        return np.array(taken, dtype=np.uint32)


def _lemire(stream, r):
    """One draw over r values as `rng.integers` takes it from an iterator of
    raw 32-bit words (Lemire's method): nothing is read for one value, and
    a word is dropped while the low half of its product with r is below
    (2**32 - r) mod r."""
    if r == 1:
        return 0
    while True:
        m = next(stream) * r
        if m % 2**32 >= (2**32 - r) % r:
            return m >> 32


def _lemire_words(generators, depth, samples, stream):
    """`_loop_words` drawing by hand from an iterator of raw 32-bit words."""
    letters = list(generators) + [np.linalg.inv(g) for g in generators]
    g = len(generators)
    for _ in range(samples):
        length = 1 + _lemire(stream, depth)
        word = np.eye(generators[0].shape[0])
        prev = -1
        for _ in range(length):
            if prev < 0:
                i = _lemire(stream, 2 * g)
            else:
                i = _lemire(stream, 2 * g - 1)
                i += i >= (prev + g) % (2 * g)
            word = word @ letters[i]
            prev = i
        yield length, word


def _loop_limit_trace(generators, depth, samples, s, seed, threshold):
    """Trace rows (length, ray..., growth) of the per-word `limit_set` loop."""
    rows = []
    for length, word in _loop_words(generators, depth, samples, np.random.default_rng(seed)):
        try:
            growth = norm_growth(word)
        except np.linalg.LinAlgError:
            growth = math.nan
        if not math.isfinite(growth):
            raise NumericalError(f"a word of length {length} overflows the floating-point range")
        if growth >= threshold:
            ray = canonical_ray(word @ s.v)
            rows.append((length, *ray.tolist(), growth))
    if not rows:
        raise EquicontinuousError("no sampled word exceeded the divergence threshold: group "
                                  "appears equicontinuous at this depth")
    return rows


def _loop_canonical_ray(v):
    """The per-vector `canonical_ray` that the stacked `canonical_rays` replaced."""
    u = np.asarray(v, dtype=float).reshape(-1)
    n = np.linalg.norm(u)
    if n == 0:
        raise NotIsotropicError("zero vector has no ray representative")
    u = u / n
    for x in u:
        if abs(x) > 1e-9:
            if x < 0:
                u = -u
            break
    return u


def _loop_project_to_cone(form, v):
    """The per-vector `project_to_cone` that `project_rows_to_cone` replaced."""
    u = np.asarray(v, dtype=float).reshape(-1)
    q = float(u @ form.gram @ u)
    n2 = float(u @ u)
    if n2 == 0:
        raise NotIsotropicError("cannot project the zero vector")
    if abs(q) <= 1e-15 * n2:
        return _loop_canonical_ray(u)
    w = form.gram @ u
    a = float(w @ form.gram @ w)
    b = -2.0 * float(w @ form.gram @ u)
    if abs(a) <= 1e-300:
        if b == 0.0:
            raise NotIsotropicError("vector cannot be projected onto the cone")
        t = -q / b
    else:
        disc = b * b - 4.0 * a * q
        if disc < 0:
            raise NotIsotropicError("vector cannot be projected onto the cone")
        r = np.sqrt(disc)
        big = -(b + np.copysign(r, b)) / 2.0
        t_big = big / a
        t_small = q / big if big != 0.0 else 0.0
        t = t_small if abs(t_small) <= abs(t_big) else t_big
    if abs(t) * np.linalg.norm(w) > 0.5 * np.sqrt(n2):
        raise NotIsotropicError("vector is not close to the isotropic cone")
    return _loop_canonical_ray(u - t * w)


def _scalar_ray_angle(u, v):
    """The ray angle of two vectors, one at a time: on unit vectors, with v
    flipped to u's side, 2 atan2(|u - v|, |u + v|)."""
    u = u / np.sqrt(np.dot(u, u))
    v = v / np.sqrt(np.dot(v, v))
    if np.dot(u, v) < 0:
        v = -v
    return float(2 * np.arctan2(np.sqrt(np.dot(u - v, u - v)), np.sqrt(np.dot(u + v, u + v))))


def _scalar_within(c, r, angle):
    """Whether ray r is within `angle` of c, one pair at a time:
    |c . r| >= cos(angle) |c| |r|, every pair from pi/2 on, none at a NaN
    or negative angle."""
    if not angle >= 0:
        return False
    if angle >= np.pi / 2:
        return True
    return bool(abs(np.dot(c, r)) >= np.cos(angle) * np.sqrt(np.dot(c, c)) * np.sqrt(np.dot(r, r)))


def _loop_cluster_rays(rays, angle):
    """The greedy per-ray, per-cluster `_cluster_rays` loop."""
    sums, members = [], []
    for r in rays:
        for i, s in enumerate(sums):
            c = s / np.linalg.norm(s)
            if _scalar_within(c, r, angle):
                aligned = r if np.dot(c, r) >= 0 else -r
                sums[i] = s + aligned
                members[i].append(aligned)
                break
        else:
            sums.append(r.copy())
            members.append([r])
    clusters = []
    for s, mem in zip(sums, members):
        c = _loop_canonical_ray(s)
        clusters.append(RayCluster(centroid=BoundaryPoint(ray=c), weight=len(mem),
                                   angular_radius=max(_scalar_ray_angle(c, m) for m in mem)))
    clusters.sort(key=lambda cl: cl.weight, reverse=True)
    return clusters


def _loop_snap_cluster(form, c):
    try:
        centroid = BoundaryPoint(ray=_loop_project_to_cone(form, c.centroid.ray))
    except NotIsotropicError:
        return c
    return RayCluster(centroid=centroid, weight=c.weight, angular_radius=c.angular_radius)


def _loop_merge_close_clusters(form, clusters, angle):
    """The pair-by-pair merge loop, with the smallest gap left (None for one
    cluster)."""
    clusters = list(clusters)
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                gap = _scalar_ray_angle(clusters[i].centroid.ray, clusters[j].centroid.ray)
                if gap <= angle and (best is None or gap < best[0]):
                    best = (gap, i, j)
        if best is None:
            break
        _, i, j = best
        a, b = clusters[i], clusters[j]
        u = a.centroid.ray * a.weight
        v = b.centroid.ray * b.weight
        if np.dot(a.centroid.ray, b.centroid.ray) < 0:
            v = -v
        centroid = BoundaryPoint(ray=_loop_canonical_ray(u + v))
        merged = RayCluster(
            centroid=centroid,
            weight=a.weight + b.weight,
            angular_radius=max(a.angular_radius + _scalar_ray_angle(centroid.ray, a.centroid.ray),
                               b.angular_radius + _scalar_ray_angle(centroid.ray, b.centroid.ray)))
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(_loop_snap_cluster(form, merged))
        clusters.sort(key=lambda cl: cl.weight, reverse=True)
    k = len(clusters)
    gap = None
    if k > 1:
        gap = min(_scalar_ray_angle(clusters[i].centroid.ray, clusters[j].centroid.ray)
                  for i in range(k) for j in range(i + 1, k))
    return clusters, gap


def _cluster_bits(clusters):
    return [(c.centroid.ray.tobytes(), c.weight, c.angular_radius) for c in clusters]


def _loop_limit_set(form, generators, depth, samples, s, seed, divergence_threshold,
                    cluster_angle):
    """The per-word, per-ray `limit_set`: (clusters, gap, divergent words, trace)."""
    rays, trace = [], []
    for length, word in _loop_words(generators, depth, samples, np.random.default_rng(seed)):
        try:
            growth = norm_growth(word)
        except np.linalg.LinAlgError:
            growth = math.nan
        if not math.isfinite(growth):
            raise NumericalError(f"a word of length {length} overflows the floating-point range")
        if growth >= divergence_threshold:
            rays.append(_loop_canonical_ray(word @ s.v))
            trace.append((length, *rays[-1].tolist(), growth))
    if not rays:
        raise EquicontinuousError("no sampled word exceeded the divergence threshold: group "
                                  "appears equicontinuous at this depth")
    snapped = []
    for r in rays:
        try:
            snapped.append(_loop_project_to_cone(form, r))
        except NotIsotropicError:
            snapped.append(_loop_canonical_ray(r))
    clusters = _loop_cluster_rays(np.array(snapped), cluster_angle)
    clusters = [_loop_snap_cluster(form, c) for c in clusters]
    clusters, gap = _loop_merge_close_clusters(form, clusters, cluster_angle)
    return _cluster_bits(clusters), gap, len(rays), trace


def _limit_set_bits(form, generators, **kwargs):
    """`limit_set` in the shape of `_loop_limit_set`."""
    trace = []
    est = limit_set(form, generators, trace=trace, **kwargs)
    return _cluster_bits(est.clusters), est.min_intercluster_gap, est.divergent_words, trace


def _cos2(angle):
    """cos^2 of a cone angle, -inf from pi/2 on."""
    return np.cos(angle) ** 2 if angle < np.pi / 2 else -np.inf


def _probe_images(form, seq, u_angle, grid):
    """The grid directions p outside the U-cone, |p B|^2 < cos^2(u_angle)
    |p|^2, one at a time, with the V-cone's basis C."""
    stable = as_subspace_kak(seq)
    unstable = as_subspace_kak(seq.inverse())
    assert stable.converged and unstable.converged
    pts = sphere_points(form.dim, grid)
    proj = pts @ stable.subspace.basis
    outside = [np.dot(q, q) < _cos2(u_angle) * np.dot(p, p) for p, q in zip(pts, proj)]
    return pts[np.array(outside, dtype=bool)], unstable.subspace.basis


def _inside(images, basis, v_angle):
    """Whether each image v is inside the V-cone, one at a time:
    |v C|^2 >= cos^2(v_angle) |v|^2."""
    return np.array([np.dot(q, q) >= _cos2(v_angle) * np.dot(v, v)
                     for v, q in zip(images, images @ basis)], dtype=bool)


def _loop_north_south(form, seq, u_angle, v_angle, grid):
    """The per-point, per-term `north_south_certificate` loop."""
    probes, basis = _probe_images(form, seq, u_angle, grid)
    if not len(probes):
        raise PreconditionError("no grid direction lies outside the U-cone")
    ok = np.array([_inside(probes @ t.T, basis, v_angle).all() for t in seq.terms])
    if ok.all():
        return 0
    first = int(np.where(~ok)[0][-1]) + 1
    if first >= len(seq):
        raise CertificateError("insufficient length: expansion never traps the "
                               "grid within the target cone")
    return first


class TestStackedAgainstLoops:
    """The stacked passes give the answers of the loops they replaced."""

    @pytest.mark.parametrize("scale", [1.0, 1e-40, 1e40])
    def test_ray_angles_match_scalar_formula_bitwise(self, scale):
        """Bitwise pin: the stacked ray angles against the scalar formula."""
        rng = np.random.default_rng(7)
        for d in (2, 3, 4, 6):
            u = rng.standard_normal((200, d)) * scale
            v = rng.standard_normal((200, d)) * scale
            v[:50] = -u[:50] * rng.uniform(0.5, 2.0, (50, 1))  # antipodal rows
            v[50:60] = u[50:60]
            v[60:80] = u[60:80] + rng.standard_normal((20, d)) * 1e-9 * scale  # near rows
            want = np.array([_scalar_ray_angle(a, b) for a, b in zip(u, v)])
            assert np.array_equal(projective._ray_angles(u, v), want)
            assert np.array_equal([ray_angle(a, b) for a, b in zip(u, v)], want)
            pairs = np.array([[_scalar_ray_angle(a, b) for b in v[:20]] for a in u[:20]])
            assert np.array_equal(projective._ray_angles(u[:20, None], v[None, :20]), pairs)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_limit_set_words_match_per_word_loop(self, d):
        """Bitwise pin: limit-set traces against the per-word loop."""
        form = QuadraticForm.minkowski(d)
        s = HyperbolicPoint.from_timelike(form, np.eye(d)[0])
        cases = [([boost(d, 15.0)], 60, 50, 0, 1e3),  # a word overflows
                 ([boost(d, 0.1)], 4, 200, 0, 1e3)]  # no word diverges
        for seed in range(6):
            rng = np.random.default_rng(100 * d + seed)
            gens = [random_lorentz(d, rng, max_rapidity=3.0) for _ in range(1 + seed % 3)]
            cases.append((gens, 1 + seed, 50 + 97 * seed, seed, (1e3, 20.0)[seed % 2]))
        outcomes = []
        for gens, depth, samples, seed, threshold in cases:
            trace = []
            with np.errstate(over="ignore", invalid="ignore"):
                want = _outcome(lambda: _loop_limit_trace(gens, depth, samples, s, seed,
                                                          threshold))
                got = _outcome(lambda: limit_set(form, gens, depth=depth, samples=samples, s=s,
                                                 seed=seed, divergence_threshold=threshold,
                                                 trace=trace))
            if want[0] == "ok":
                assert got[0] == "ok" and got[1].divergent_words == len(want[1])
                assert trace == want[1]
            else:
                assert got == want
            outcomes.append(want[0])
        assert outcomes[:2] == ["NumericalError", "EquicontinuousError"]
        assert outcomes.count("ok") >= 3

    def test_schottky_limit_set_matches_per_word_loop(self, mink3):
        """Bitwise pin: the Schottky trace against the per-word loop."""
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        trace = []
        est = limit_set(mink3, list(schottky_pair()), s=s, seed=4, trace=trace)
        assert trace == _loop_limit_trace(list(schottky_pair()), 8, 2000, s, 4, 1e3)
        assert est.divergent_words == len(trace)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_sampled_words_match_per_letter_stream(self, g):
        """Bitwise pin: g = 1 takes the whole stream in one call, g >= 2 one call per word."""
        for depth in range(1, 13):
            for seed in range(3):
                rng = np.random.default_rng(1000 * g + 10 * depth + seed)
                d = 3 + seed
                gens = [random_lorentz(d, rng, max_rapidity=1.0) for _ in range(g)]
                samples = 1 + 37 * seed
                with np.errstate(over="ignore", invalid="ignore"):
                    lengths, words, which = _sample_words(gens, depth, samples,
                                                          np.random.default_rng(seed))
                    want = list(_loop_words(gens, depth, samples, np.random.default_rng(seed)))
                assert lengths.tolist() == [length for length, _ in want]
                assert words[which].tobytes() == np.array([w for _, w in want]).tobytes()

    def test_hand_drawn_words_match_numpy(self):
        """Bitwise pin: the by-hand reference reads numpy's raw stream as numpy does."""
        gens = [boost(3, 1.2), spatial_rotation(3, ROT90) @ boost(3, 0.7)]
        for g, depth, seed in [(1, 1, 0), (1, 9, 1), (2, 1, 2), (2, 12, 3), (2, 9, 4)]:
            raw = np.random.default_rng(seed).integers(0, 2**32, size=5000, dtype=np.uint32)
            by_hand = list(_lemire_words(gens[:g], depth, 200, iter(raw.tolist())))
            numpy_drawn = list(_loop_words(gens[:g], depth, 200, np.random.default_rng(seed)))
            assert [n for n, _ in by_hand] == [n for n, _ in numpy_drawn]
            assert np.array([w for _, w in by_hand]).tobytes() == np.array(
                [w for _, w in numpy_drawn]).tobytes()

    def test_sampled_words_drop_rejected_raw_words(self):
        """Bitwise pin: raw word 0 is rejected under 9 values (cutoff 4) and under 3 (cutoff 1)."""
        assert 0 < (2**32 - 9) % 9 and 0 < (2**32 - 3) % 3
        gens = [boost(3, 1.2), spatial_rotation(3, ROT90) @ boost(3, 0.7)]
        tail = np.random.default_rng(7).integers(0, 2**32, size=2000, dtype=np.uint32).tolist()
        # depth 9, g = 2: the first length is 0 (dropped), then 2**31 (length
        # 5); the first letter reads 5 (4 values), the second 0 (3 values, dropped)
        words = [0, 2**31, 5, 0] + tail
        want = list(_lemire_words(gens, 9, 40, iter(words)))
        lengths, got, which = _sample_words(gens, 9, 40, _RawWords(words))
        assert want[0][0] == 5
        assert lengths.tolist() == [n for n, _ in want]
        assert got[which].tobytes() == np.array([w for _, w in want]).tobytes()
        # and with rejected words sprinkled through the stream, for every range
        rng = np.random.default_rng(8)
        for g, depth in [(1, 3), (1, 9), (2, 1), (2, 6), (3, 12), (2, 9)]:
            for _ in range(4):
                words = list(tail)
                for at in rng.integers(0, 400, size=40):
                    words[at] = 0
                want = list(_lemire_words(gens[:1] * g, depth, 50, iter(words)))
                lengths, got, which = _sample_words(gens[:1] * g, depth, 50, _RawWords(words))
                assert lengths.tolist() == [n for n, _ in want]
                assert got[which].tobytes() == np.array([w for _, w in want]).tobytes()

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_limit_set_matches_parent_loops(self, d):
        """Bitwise pin: whole limit sets against the per-word, per-ray loops."""
        form = QuadraticForm.minkowski(d)
        s = HyperbolicPoint.from_timelike(form, np.eye(d)[0] + 0.3 * np.eye(d)[1])
        cases = [([boost(d, 1.2)], 8, 2000, 0, 1e3, 5.0),
                 ([boost(d, 15.0)], 40, 50, 0, 1e3, 5.0)]  # an image overflows
        for seed in range(8):
            rng = np.random.default_rng(10 * d + seed)
            gens = [random_lorentz(d, rng, max_rapidity=1.5) for _ in range(1 + seed % 3)]
            cases.append((gens, 1 + (5 * seed) % 12, 300, seed, (1e2, 8.0)[seed % 2],
                          (5.0, 20.0, 1.0)[seed % 3]))
        outcomes = []
        for gens, depth, samples, seed, threshold, degrees in cases:
            kwargs = dict(depth=depth, samples=samples, s=s, seed=seed,
                          divergence_threshold=threshold, cluster_angle=np.deg2rad(degrees))
            with np.errstate(over="ignore", invalid="ignore"):
                want = _outcome(lambda: _loop_limit_set(form, gens, **kwargs))
                got = _outcome(lambda: _limit_set_bits(form, gens, **kwargs))
            if want[0] == "NotIsotropicError":  # the parent's report of an overflowing image
                assert got[0] == "NumericalError" and "image" in got[1]
            else:
                assert got == want
            outcomes.append(want[0] if want[0] != "ok" else len(want[1][0]))
        assert outcomes[:2] == [2, "NotIsotropicError"]
        assert sum(isinstance(o, int) and o > 2 for o in outcomes) >= 2

    def test_rays_match_per_ray_loops(self):
        """Bitwise pin: canonical and cone-projected rays against the per-ray loops."""
        rng = np.random.default_rng(5)
        forms = [(QuadraticForm.minkowski(3), []), (QuadraticForm.minkowski(5), []),
                 (split_form_3d(), []),
                 # q(gram.v) = 0 at (1, 0, 1/8): the linear Newton step
                 (QuadraticForm.from_gram(np.diag([-1.0, 1.0, 4.0])), [[1.0, 0.0, 0.125]])]
        codes = set()
        for form, extra in forms:
            d = form.dim
            e = np.eye(d)
            special = [e[0] + e[1], -(e[0] + e[1]), e[0], e[1] - 3e-10 * e[0], -e[d - 1],
                       e[0] + e[1] + 1e-9 * e[2], 1e-160 * (e[0] + e[1])] + extra
            v = np.concatenate([special, rng.normal(size=(300, d)),
                                rng.normal(size=(50, d)) * 1e-40, rng.normal(size=(50, d)) * 1e40])
            v = np.concatenate([v, -v])  # antipodal rows
            assert canonical_rays(v).tobytes() == np.array(
                [_loop_canonical_ray(x) for x in v]).tobytes()
            rays, failed = project_rows_to_cone(form, v)
            for x, r, f in zip(v, rays, failed):
                want = _outcome(lambda: _loop_project_to_cone(form, x))
                if want[0] == "ok":
                    assert f == 0 and r.tobytes() == want[1].tobytes()
                else:
                    assert f > 0 and np.isnan(r).all()
                    with pytest.raises(NotIsotropicError, match=want[1]):
                        project_to_cone(form, x)
            codes |= set(failed.tolist())
        assert codes == {0, 2, 3}
        with pytest.raises(NotIsotropicError, match="zero vector has no ray"):
            canonical_rays(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert project_rows_to_cone(forms[0][0], np.zeros((1, 3)))[1].tolist() == [1]

    @pytest.mark.parametrize("d", [3, 4])
    def test_cluster_rays_matches_greedy_loop(self, d):
        """Bitwise pin: ray clusters against the greedy per-ray loop."""
        rng = np.random.default_rng(d)
        for trial in range(12):
            angle = np.deg2rad((5.0, 2.0, 30.0)[trial % 3])
            centers = rng.normal(size=(1 + trial % 5, d))
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)
            members = centers[rng.integers(0, len(centers), size=150)]
            rays = members + rng.normal(size=members.shape) * angle * (0.2 + 0.2 * (trial % 4))
            rays[::3] *= -1  # antipodal copies of the same ray
            rays = canonical_rays(rays)
            assert _cluster_bits(_cluster_rays(rays, angle)) == _cluster_bits(
                _loop_cluster_rays(rays, angle))

    @pytest.mark.parametrize("degrees, block", [
        # ten rays at 4 degrees drag the centroid to about 1 degree, so the
        # ray at -4.5 degrees, within 5 degrees of the centroid before the
        # block, starts a cluster of its own
        (5.0, [4.0] * 10 + [-4.5] + [4.2] * 30 + [-4.4, 0.5] * 20),
        # thirty rays at 70 degrees drag the centroid to about 36 degrees, so
        # the ray at 110 degrees joins it as drawn, not reversed
        (80.0, [70.0] * 30 + [110.0] + [60.0, 120.0] * 20),
    ], ids=["new-cluster", "sign"])
    def test_cluster_rays_block_drift_flips_a_later_ray(self, degrees, block):
        """Bitwise pin: 32 rays at 0 degrees, then a block of rays that drags the
        running centroid."""
        t = np.deg2rad([0.0] * 32 + block)
        rays = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        angle = np.deg2rad(degrees)
        assert _cluster_bits(_cluster_rays(rays, angle)) == _cluster_bits(
            _loop_cluster_rays(rays, angle))

    def test_merge_ties_resolve_row_major(self, mink3):
        """Bitwise pin: gaps (0, 1) and (0, 2) are equal bit for bit, so the first pair merges."""
        c = math.cos(np.deg2rad(3.0))
        rays = [np.array([1.0, 1.0, 0.0]), np.array([1.0, c, math.sqrt(1 - c * c)]),
                np.array([1.0, c, -math.sqrt(1 - c * c)]), np.array([1.0, -1.0, 0.0])]
        clusters = [RayCluster(centroid=BoundaryPoint(ray=canonical_ray(r)), weight=w,
                               angular_radius=0.01 * w) for r, w in zip(rays, [5, 3, 3, 2])]
        tie = [clusters[0].centroid.angle_to(clusters[k].centroid) for k in (1, 2)]
        assert tie[0] == tie[1]
        for degrees in (1.0, 3.0, 5.0, 10.0, 100.0):
            angle = np.deg2rad(degrees)
            for order in ([0, 1, 2, 3], [1, 2, 0, 3], [3, 2, 1, 0]):
                cl = [clusters[i] for i in order]
                got, gap = _merge_close_clusters(mink3, cl, angle)
                want, want_gap = _loop_merge_close_clusters(mink3, cl, angle)
                assert _cluster_bits(got) == _cluster_bits(want) and gap == want_gap

    @pytest.mark.parametrize("d", [3, 4])
    def test_merge_chains_equal_pair_loop(self, d, monkeypatch):
        """Bitwise pin: clusters on the cone of diag(-1, 1, ..., 1) jittered around a few centres,
        with tied weights: merges chain, and a merged centroid can re-sort among the survivors;
        every gap is computed once."""
        form = QuadraticForm.minkowski(d)
        rng = np.random.default_rng(70 + d)
        centres = rng.normal(size=(5, d - 1))
        calls = []
        gaps = projective._centroid_gaps
        monkeypatch.setattr(projective, "_centroid_gaps",
                            lambda cl: calls.append(len(cl)) or gaps(cl))
        merged = 0
        for trial in range(6):
            space = centres[rng.integers(0, 5, size=24)] + 0.04 * rng.normal(size=(24, d - 1))
            space /= np.linalg.norm(space, axis=1, keepdims=True)
            rays = canonical_rays(np.column_stack([np.ones(24), space]))
            clusters = [RayCluster(centroid=BoundaryPoint(ray=r), weight=int(w),
                                   angular_radius=0.001 * w)
                        for r, w in zip(rays, rng.integers(1, 4, size=24))]
            for degrees in (0.5, 2.0, 5.0, 12.0):
                angle = np.deg2rad(degrees)
                calls.clear()
                got, gap = _merge_close_clusters(form, clusters, angle)
                want, want_gap = _loop_merge_close_clusters(form, clusters, angle)
                assert _cluster_bits(got) == _cluster_bits(want) and gap == want_gap
                assert calls == [24]
                merged = max(merged, 24 - len(got))
        assert merged >= 10

    def test_merge_of_antipodal_representatives(self, split3):
        """Bitwise pin: e3 and (-t^2, t, 1) are isotropic for x1 x3 + x2^2 and 0.01 rad apart, but
        their canonical representatives point away from each other."""
        rays = [canonical_ray([0.0, 0.0, 1.0]), canonical_ray([-1e-4, 1e-2, 1.0])]
        assert np.dot(rays[0], rays[1]) < 0
        clusters = [RayCluster(centroid=BoundaryPoint(ray=r), weight=w, angular_radius=0.0)
                    for r, w in zip(rays, [3, 2])]
        got, gap = _merge_close_clusters(split3, clusters, np.deg2rad(5.0))
        want, want_gap = _loop_merge_close_clusters(split3, clusters, np.deg2rad(5.0))
        assert _cluster_bits(got) == _cluster_bits(want) and gap is want_gap is None
        assert len(got) == 1 and got[0].weight == 5
        assert got[0].centroid.angle_to(clusters[0].centroid) < 1e-2

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_north_south_matches_per_term_loop(self, d):
        """Bitwise pin: certificates against the per-point, per-term loop."""
        form = QuadraticForm.minkowski(d)
        results = []
        for seed in range(4):
            rng = np.random.default_rng(10 * d + seed)
            seq = (random_divergent_sequence(d, rng)[0] if d > 2
                   else boost_sequence(2, 0.6 + 0.2 * seed, 12))
            for u, v in [(5, 5), (10, 10), (2, 20), (30, 1), (0.5, 1e-3), (0.01, 1e-8)]:
                grid = 400 + 300 * seed
                args = (form, seq, np.deg2rad(u), np.deg2rad(v), grid)
                want = _outcome(lambda: _loop_north_south(*args))
                assert _outcome(lambda: north_south_certificate(*args)) == want
                results.append(want)
        assert any(r[0] == "ok" and r[1] > 0 for r in results)
        assert any(r[0] == "CertificateError" for r in results)


def _svd_word_growth(words, threshold, exact_above):
    """The all-words route that `_word_growth` replaced: one stacked svd of
    every finite word, inf for the others."""
    finite = np.isfinite(words).all(axis=(1, 2))
    growth = np.full(len(words), np.inf)
    growth[finite] = np.linalg.svd(words[finite], compute_uv=False)[:, 0]
    return growth


def _estimate_bits(form, generators, traced, **kwargs):
    """`limit_set`'s outcome as bits: the estimate and the trace, or the error."""
    trace = [] if traced else None

    def run():
        est = limit_set(form, generators, trace=trace, **kwargs)
        return (_cluster_bits(est.clusters), est.cardinality_class, est.words_sampled,
                est.divergent_words, est.min_intercluster_gap, trace)

    with np.errstate(over="ignore", invalid="ignore"):
        return repr(_outcome(run))


def _both_routes(monkeypatch, form, generators, **kwargs):
    got = _estimate_bits(form, generators, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(projective, "_word_growth", _svd_word_growth)
        want = _estimate_bits(form, generators, **kwargs)
    return got, want


class TestWordGrowthBounds:
    """Norm bounds settle most words' divergence; the estimates and traces
    are bitwise those of the all-words svd route."""

    @staticmethod
    def groups():
        mink3 = QuadraticForm.minkowski(3)
        groups = [(mink3, [boost(3, 1.2)], [1.0, 0.0, 0.0]),
                  (split_form_3d(), [split_unipotent(5.0)], [1.0, 0.0, -1.0]),
                  (mink3, list(schottky_pair()), [1.0, 0.0, 0.0])]
        for d in (3, 4, 5):
            rng = np.random.default_rng(40 + d)
            groups.append((QuadraticForm.minkowski(d),
                           [random_lorentz(d, rng, max_rapidity=2.0) for _ in range(2)],
                           np.eye(d)[0]))
        return groups

    @pytest.mark.parametrize("depth", range(3, 11))
    def test_matches_all_words_svd(self, monkeypatch, depth):
        """Bitwise pin: estimates and traces against the all-words SVD route."""
        kinds = set()
        for form, gens, base in self.groups():
            s = HyperbolicPoint(v=np.array(base), form=form)
            for threshold in (0.0, 30.0, 1e3, np.inf, np.nan):
                for traced in (False, True):
                    got, want = _both_routes(monkeypatch, form, gens, traced=traced,
                                             depth=depth, samples=300, s=s, seed=depth,
                                             divergence_threshold=threshold)
                    assert got == want
                    kinds.add(want.split("'")[1])
        assert "ok" in kinds

    def test_threshold_at_a_word_growth_keeps_it(self, mink3, monkeypatch):
        """Bitwise pin: a threshold at a word's growth, against the all-words SVD route."""
        gens = list(schottky_pair())
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        _, words, which = _sample_words(gens, 8, 2000, np.random.default_rng(3))
        growth = np.linalg.svd(words[which], compute_uv=False)[:, 0]
        for t in np.sort(growth)[[0, 700, 1500, 1999]]:
            for traced in (False, True):
                got, want = _both_routes(monkeypatch, mink3, gens, traced=traced, s=s, seed=3,
                                         divergence_threshold=float(t))
                assert got == want
            trace = []
            est = limit_set(mink3, gens, s=s, seed=3, divergence_threshold=float(t), trace=trace)
            assert est.divergent_words == int(np.sum(growth >= t))
            assert float(t) in [row[-1] for row in trace]

    def test_every_threshold_at_a_word_growth(self):
        # past growth 1e8 the bounds agree with LAPACK to the last few bits,
        # so only the margin keeps a word at the threshold from being dropped
        rng = np.random.default_rng(4)
        gens = [random_lorentz(4, rng, max_rapidity=4.0) for _ in range(2)]
        _, words, which = _sample_words(gens, 8, 2000, np.random.default_rng(3))
        words = words[which]
        growth = np.linalg.svd(words, compute_uv=False)[:, 0]
        assert np.median(growth) > 1e10
        for t in np.unique(growth):
            assert np.array_equal(projective._word_growth(words, t, False) < t, growth < t)

    @pytest.mark.parametrize("depth, threshold, kind", [
        # b^2 (growth e^180, near 1.5e78) straddles the Frobenius bounds at
        # 0.9 e^180, so it takes the svd; |b^2|_F settles it at 1.2 e^180
        (2, 0.9 * math.exp(180.0), "ok"),
        (2, 1.2 * math.exp(180.0), "EquicontinuousError"),
        (4, 1e157, "EquicontinuousError"),  # b^4 (entries near 1e156) is below it
        (4, 1e156, "NumericalError"),  # b^4 is kept and its image overflows
        (4, 1e3, "NumericalError"),
        (4, np.nan, "NumericalError"),
        (7, 1e300, "EquicontinuousError"),  # b^7 has entries near 1e273
        (8, 1e300, "NumericalError"),  # b^8 has infinite entries
    ])
    def test_overflowing_bounds_take_the_exact_path(self, mink3, monkeypatch, depth, threshold,
                                                    kind):
        """Bitwise pin: the squared Frobenius norm of b^k overflows from k = 4 on."""
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        for traced in (False, True):
            got, want = _both_routes(monkeypatch, mink3, [boost(3, 90.0)], traced=traced,
                                     depth=depth, samples=200, s=s, seed=0,
                                     divergence_threshold=threshold)
            assert got == want and want.startswith(f"('{kind}'")

    @pytest.mark.parametrize("group", ["cyclic", "schottky"])
    def test_lapack_sees_only_words_near_the_threshold(self, mink3, monkeypatch, group):
        gens = [boost(3, 1.2)] if group == "cyclic" else list(schottky_pair())
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        _, words, _ = _sample_words(gens, 8, 2000, np.random.default_rng(0))
        rows = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: rows.append(len(a)) or svd(a, **kw))
        limit_set(mink3, gens, depth=8, samples=2000, s=s, seed=0)
        # LAPACK sees the distinct words whose bracket |A|_F / sqrt(3) <=
        # sigma_1 <= |A|_F straddles the threshold 1e3 with its 1e-8 margin
        fro = np.sqrt(np.sum(words * words, axis=(1, 2)))
        straddles = ~(fro < 1e3 * (1 - 1e-8)) & ~(fro / np.sqrt(3) > 1e3 * (1 + 1e-8))
        assert rows == [int(np.sum(straddles))]
        rows.clear()
        limit_set(mink3, gens, depth=8, samples=2000, s=s, seed=0, trace=[])
        # LAPACK sees each distinct kept word once
        assert rows == [int(np.sum(svd(words, compute_uv=False)[:, 0] >= 1e3))]


def _all_samples_words(generators, depth, samples, rng):
    """The sampler before prefix sharing: (lengths, words, letter picks),
    every sample's word built on its own row, one stacked product per
    letter position."""
    letters = np.array(list(generators) + [np.linalg.inv(g) for g in generators])
    g = len(generators)
    lengths, picks = projective._draw_words(depth, g, samples, rng)
    for level in range(1, depth):
        picks[:, level] += picks[:, level] >= (picks[:, level - 1] + g) % (2 * g)
    words = np.broadcast_to(np.eye(letters.shape[1]), (samples,) + letters.shape[1:]).copy()
    for level in range(depth):
        act = np.flatnonzero(lengths > level)
        words[act] = words[act] @ letters[picks[act, level]]
    return lengths, words, picks


def _all_samples_limit_set(form, generators, s, depth, samples, seed, trace,
                           divergence_threshold=projective.WORD_DIVERGENCE_THRESHOLD,
                           cluster_angle=projective.CLUSTER_ANGLE):
    """`limit_set` sharing no work between samples: every sample's word is
    multiplied, normed, imaged and snapped on its own row.  Returns the
    clusters, the gap and the count of divergent words."""
    lengths, words, _ = _all_samples_words(generators, depth, samples,
                                           np.random.default_rng(seed))
    growth = projective._word_growth(words, divergence_threshold, exact_above=trace is not None)
    overflow = ~np.isfinite(growth)
    if overflow.any():
        raise NumericalError(f"a word of length {lengths[np.argmax(overflow)]} overflows "
                             "the floating-point range")
    kept = np.flatnonzero(~(growth < divergence_threshold))
    images = words[kept] @ s.v
    overflow = ~np.isfinite(_dots(images, images))
    if overflow.any():
        raise NumericalError(f"the image of a word of length {lengths[kept][np.argmax(overflow)]} "
                             "overflows the floating-point range")
    rays = canonical_rays(images)
    if trace is not None:
        trace.extend((int(lengths[k]), *ray.tolist(), float(growth[k]))
                     for k, ray in zip(kept, rays))
    if not kept.size:
        raise EquicontinuousError("no sampled word exceeded the divergence threshold: group "
                                  "appears equicontinuous at this depth")
    snapped, failed = project_rows_to_cone(form, rays)
    snapped[failed > 0] = canonical_rays(rays[failed > 0])
    clusters = _cluster_rays(snapped, cluster_angle)
    clusters = projective._snap_clusters(form, clusters)
    return (*_merge_close_clusters(form, clusters, cluster_angle), len(kept))


def _shared_and_all_samples(form, generators, traced, **kwargs):
    """The outcomes of `limit_set` and of `_all_samples_limit_set` as bits:
    clusters, gap, divergent words and trace, or the error."""
    def bits(run):
        trace = [] if traced else None

        def go():
            clusters, gap, count = run(trace)
            return _cluster_bits(clusters), gap, count, trace

        with np.errstate(over="ignore", invalid="ignore"):
            return repr(_outcome(go))

    def shared(trace):
        est = limit_set(form, generators, trace=trace, **kwargs)
        return est.clusters, est.min_intercluster_gap, est.divergent_words

    return bits(shared), bits(lambda trace: _all_samples_limit_set(form, generators,
                                                                   trace=trace, **kwargs))


class TestDistinctWords:
    """Each distinct word is built, normed, imaged and snapped once; the
    samples get their word's bits, as when every sample had its own row."""

    def test_each_distinct_word_is_built_once(self):
        rng = np.random.default_rng(9)
        for g in (1, 2, 3):
            gens = [random_lorentz(3, rng, max_rapidity=1.0) for _ in range(g)]
            for depth, samples in [(1, 1), (1, 300), (2, 7), (5, 300), (12, 40), (12, 2000),
                                   (60, 3), (300, 20)]:
                with np.errstate(over="ignore", invalid="ignore"):
                    lengths, words, which = _sample_words(gens, depth, samples,
                                                          np.random.default_rng(depth))
                    want_lengths, want, picks = _all_samples_words(gens, depth, samples,
                                                                   np.random.default_rng(depth))
                assert np.array_equal(lengths, want_lengths)
                assert words[which].tobytes() == want.tobytes()
                distinct = {(n, *p[:n]) for n, p in zip(lengths.tolist(), picks.tolist())}
                assert len(words) == len(distinct)

    def test_deep_words_take_the_aligned_path(self):
        # 40 words of up to 2000 letters over two generators stop sharing a
        # prefix after a few letters, so each then has a row of its own
        rng = np.random.default_rng(12)
        gens = [random_lorentz(3, rng, max_rapidity=0.05) for _ in range(2)]
        lengths, words, which = _sample_words(gens, 2000, 40, np.random.default_rng(5))
        want = list(_loop_words(gens, 2000, 40, np.random.default_rng(5)))
        assert lengths.tolist() == [length for length, _ in want]
        assert words[which].tobytes() == np.array([w for _, w in want]).tobytes()
        assert len(words) == 40 and lengths.min() > 20

    @pytest.mark.parametrize("group", [0, 1, 2], ids=["cyclic", "unipotent", "schottky"])
    def test_limit_set_matches_all_samples_pipeline(self, group):
        """Bitwise pin: limit sets against the pipeline that builds every sample's word."""
        form, gens, base = TestWordGrowthBounds.groups()[group]
        s = HyperbolicPoint(v=np.array(base), form=form)
        kinds = set()
        for depth in range(1, 11):
            for seed in range(4):
                for samples in (1, 50, 2000):
                    for traced in (False, True):
                        got, want = _shared_and_all_samples(form, gens, traced, depth=depth,
                                                            samples=samples, s=s, seed=seed)
                        assert got == want
                        kinds.add(want.split("'")[1])
        assert kinds == {"ok", "EquicontinuousError"}

    @pytest.mark.parametrize("depth, threshold", [
        (2, 0.9 * math.exp(180.0)), (2, 1.2 * math.exp(180.0)), (4, 1e157), (4, 1e156),
        (4, 1e3), (4, np.nan), (7, 1e300), (8, 1e300)])
    def test_overflowing_words_match_all_samples_pipeline(self, mink3, depth, threshold):
        """Bitwise pin: overflowing words against the all-samples pipeline."""
        s = HyperbolicPoint.from_timelike(mink3, [1, 0, 0])
        for traced in (False, True):
            got, want = _shared_and_all_samples(mink3, [boost(3, 90.0)], traced, depth=depth,
                                                samples=200, s=s, seed=0,
                                                divergence_threshold=threshold)
            assert got == want

    def test_certificate_scan_matches_forward_loop(self, mink3):
        """Bitwise pin: k B(step n) k^-1 for n = 1..24, scanned from the last term down."""
        rng = np.random.default_rng(11)
        results = []
        for step in (0.3, 0.45, 0.55):
            k = random_lorentz(3, rng, max_rapidity=0.5)
            seq = MatrixSequence.from_terms(conjugated_boost_terms(k, step, 24))
            for u, v in [(5, 5), (10, 10), (60, 60), (2, 0.5), (1, 1e-6)]:
                args = (mink3, seq, np.deg2rad(u), np.deg2rad(v), 500)
                want = _outcome(lambda: _loop_north_south(*args))
                assert _outcome(lambda: north_south_certificate(*args)) == want
                results.append(want)
        assert ("ok", 0) in results
        assert any(r[0] == "ok" and r[1] > 0 for r in results)
        assert any(r[0] == "CertificateError" for r in results)


def _word_clusters(monkeypatch, rows, at, angle):
    """`_cluster_words(rows, at, angle)` as bits, and whether it certified
    the groups (no sample went through `_cluster_rays`)."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(projective, "_cluster_rays",
                  lambda rays, a: calls.append(len(rays)) or _cluster_rays(rays, a))
        got = projective._cluster_words(rows, np.asarray(at), angle)
    return _cluster_bits(got), not calls


def _plane_rows(degrees):
    """Unit rows of the (e1, e2) plane at the given angles."""
    t = np.deg2rad(np.asarray(degrees, dtype=float))
    return np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)


class TestCertifiedClusters:
    """Samples that repeat a few distinct rows are clustered from the rows
    when a separation certificate fixes each row's cluster and sign: the
    clusters are bitwise the greedy loop's on every sample, certified or not."""

    def assert_greedy(self, monkeypatch, rows, at, angle):
        got, certified = _word_clusters(monkeypatch, rows, at, angle)
        assert got == _cluster_bits(_loop_cluster_rays(rows[np.asarray(at)], angle))
        return certified

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_duplicated_word_streams(self, monkeypatch, d):
        """Bitwise pin: certified clusters of shuffled word streams against the greedy loop."""
        rng = np.random.default_rng(30 + d)
        paths = []
        for trial in range(40):
            angle = np.deg2rad((5.0, 2.0, 30.0, 100.0)[trial % 4])
            centers = canonical_rays(rng.normal(size=(1 + trial % 3, d)))
            spread = min(angle, 1.0) * (0.02, 0.1, 0.3, 0.6)[trial // 4 % 4]
            rows = centers[rng.integers(0, len(centers), size=3 + trial % 20)]
            rows = canonical_rays(rows + rng.normal(size=rows.shape) * spread)
            # every row drawn, most of them many times, in a shuffled stream
            at = rng.permutation(np.concatenate([np.arange(len(rows)),
                                                 rng.integers(0, len(rows), size=400)]))
            paths.append(self.assert_greedy(monkeypatch, rows, at, angle))
        assert True in paths and False in paths

    @pytest.mark.parametrize("scale", [1.0, 1.2, 1.4, 1.6, 1.8, 2.0])
    def test_rows_one_to_two_angles_from_a_leader(self, monkeypatch, scale):
        """Bitwise pin: a leader at 0 with members up to 2 degrees off, and a row `scale` clustering
        angles away: certified only past angle + rho."""
        rows = _plane_rows([0.0, 2.0, -1.0, 5.0 * scale, 5.0 * scale + 0.5])
        at = [0, 1, 0, 3, 2, 4, 1, 3, 0, 4] * 20
        certified = self.assert_greedy(monkeypatch, rows, at, np.deg2rad(5.0))
        assert certified == (5.0 * scale > 5.0 + 2.0)

    def test_running_centroid_captures_a_row_beyond_every_member(self, monkeypatch):
        """Bitwise pin: two rows 5.1 degrees from e1 and 4.9 apart: their mean is about 4.5 degrees
        from e1, so e1 joins their cluster though it is more than 5 degrees from both; only the
        leader's radius rho shows it."""
        theta, sep = np.deg2rad(5.1), np.deg2rad(4.9)
        phi = 0.5 * np.arccos((np.cos(sep) - np.cos(theta) ** 2) / np.sin(theta) ** 2)
        rows = np.array([[np.cos(theta), np.sin(theta) * np.cos(p), np.sin(theta) * np.sin(p)]
                         for p in (-phi, phi)] + [[1.0, 0.0, 0.0]])
        assert np.allclose(np.rad2deg([_scalar_ray_angle(r, rows[0]) for r in rows]),
                           [0, 4.9, 5.1])
        angle = np.deg2rad(5.0)
        want = _loop_cluster_rays(rows[[0, 1, 2, 2, 0]], angle)
        assert len(want) == 1
        assert not self.assert_greedy(monkeypatch, rows, [0, 1, 2, 2, 0], angle)

    def test_row_within_the_angle_of_two_leaders(self, monkeypatch):
        """Bitwise pin: the row at 4 degrees is within 5 degrees of both leaders, 0 and 7.5."""
        rows = _plane_rows([0.0, 7.5, 4.0])
        for at in ([0, 1, 2] * 30, [1, 0, 2] * 30, [0, 2, 1, 2] * 30):
            assert not self.assert_greedy(monkeypatch, rows, at, np.deg2rad(5.0))

    @pytest.mark.parametrize("degrees, block", [
        (5.0, [4.0] * 10 + [-4.5] + [4.2] * 30 + [-4.4, 0.5] * 20),
        (80.0, [70.0] * 30 + [110.0] + [60.0, 120.0] * 20),
    ], ids=["new-cluster", "sign"])
    def test_block_drift_geometry_with_repeated_words(self, monkeypatch, degrees, block):
        """Bitwise pin: `test_cluster_rays_block_drift_flips_a_later_ray`'s rays as words: a running
        centroid that drifts fails the certificate."""
        t = [0.0] * 32 + block
        distinct, at = np.unique(t, return_inverse=True)
        assert not self.assert_greedy(monkeypatch, _plane_rows(distinct), at,
                                      np.deg2rad(degrees))

    def test_antipodal_duplicates(self, monkeypatch):
        """Bitwise pin: a row and its antipode as two words: one cluster, signs by the leader."""
        rows = _plane_rows([1.0, 181.0, 0.5, 180.2, 90.0, 270.5])
        at = [1, 0, 2, 3, 4, 5, 0, 1, 3, 5, 4, 2] * 15
        assert self.assert_greedy(monkeypatch, rows, at, np.deg2rad(5.0))
        # and antipodes straddling the clustering angle
        rows = _plane_rows([0.0, 183.0, 3.0, 177.0])
        assert not self.assert_greedy(monkeypatch, rows, [0, 1, 2, 3] * 10, np.deg2rad(5.0))

    def test_signed_zero_entries_keep_their_bits(self, monkeypatch):
        """Bitwise pin: each sum starts from its leader row: 0.0 + (-0.0) would drop a bit."""
        rows = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [1.0, -0.0, 0.0],
                         [-1.0, 0.0, -0.0]])
        at = [0, 1, 2, 3, 1, 0, 3, 2, 0]
        got, certified = _word_clusters(monkeypatch, rows, at, np.deg2rad(5.0))
        assert certified and got == _cluster_bits(_loop_cluster_rays(rows[at], np.deg2rad(5.0)))
        centroids = [np.frombuffer(c[0]) for c in got]
        assert np.signbit(centroids[0][1]) or np.signbit(centroids[1][1])

    @pytest.mark.parametrize("angle", [0.0, -1.0, np.nan, 1e-12, 1e-7, np.inf])
    def test_degenerate_angles(self, monkeypatch, angle):
        """Bitwise pin: with no angle to speak of, every row is one cluster, aligned with the first:
        certified while the rows span less than pi/2."""
        rows = _plane_rows([0.0, 1e-6, 3.0, 40.0])
        with np.errstate(invalid="ignore"):
            certified = self.assert_greedy(monkeypatch, rows, [0, 1, 2, 3, 2, 1, 0] * 5, angle)
        # a tiny angle is below the rounding the certificate allows for
        assert certified == (angle == np.inf)
        rows = _plane_rows([0.0, 3.0, 100.0])
        assert not self.assert_greedy(monkeypatch, rows, [0, 1, 2, 1] * 5, angle)

    @pytest.mark.parametrize("group, certified", [(0, True), (1, True), (2, False)],
                             ids=["cyclic", "unipotent", "schottky"])
    def test_benchmark_groups_take_their_path(self, monkeypatch, group, certified):
        """Bitwise pin: the benchmark groups' clusters against the greedy loop, on their path."""
        form, gens, base = TestWordGrowthBounds.groups()[group]
        s = HyperbolicPoint(v=np.array(base), form=form)
        args = []
        cluster_words = projective._cluster_words
        with monkeypatch.context() as m:
            m.setattr(projective, "_cluster_words",
                      lambda *a: args.append(a) or cluster_words(*a))
            for seed in range(5):
                limit_set(form, gens, depth=8, samples=2000, s=s, seed=seed)
        assert len(args) == 5
        for rows, at, angle in args:
            got, ok = _word_clusters(monkeypatch, rows, at, angle)
            assert ok == certified
            assert got == _cluster_bits(_loop_cluster_rays(rows[at], angle))


def _edge_angle(form, seq, u_angle, grid):
    """The smallest v_angle at which every probe's image under the last
    term passes the cone test, found by bisection on the angle's bits."""
    probes, basis = _probe_images(form, seq, u_angle, grid)
    images = probes @ seq.terms[-1].T
    lo, hi = np.array([0.0, np.pi / 2]).view(np.int64)
    assert not _inside(images, basis, 0.0).all() and _inside(images, basis, np.pi / 2).all()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _inside(images, basis, float(np.int64(mid).view(np.float64))).all():
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


class TestNorthSouthBounds:
    """Each probe is decided by one cosine test, |v C|^2 against
    cos^2(v_angle) |v|^2, and every answer is the per-term loop's."""

    @pytest.mark.parametrize("v_angle", [0.0, 1e-12, np.deg2rad(5.0), np.deg2rad(89.9),
                                         np.pi / 2, 2.0],
                             ids=["0", "1e-12", "5deg", "89.9deg", "half-pi", "2"])
    def test_matches_per_term_loop(self, v_angle):
        """Bitwise pin: the cosine-test certificate against the per-term loop."""
        results = []
        for d, seed in [(3, 0), (3, 1), (4, 2), (5, 3)]:
            form = QuadraticForm.minkowski(d)
            seq = random_divergent_sequence(d, np.random.default_rng(60 + seed))[0]
            for u in (1.0, 5.0, 30.0):
                args = (form, seq, np.deg2rad(u), v_angle, 600)
                want = _outcome(lambda: _loop_north_south(*args))
                assert _outcome(lambda: north_south_certificate(*args)) == want
                results.append(want)
        # past pi/2 every image is in the cone; at 0 only those that land on
        # the axis to the last bit are, and they do for the first sequence
        if v_angle >= np.pi / 2:
            assert set(results) == {("ok", 0)}
        elif v_angle < 1e-9:
            assert {r[0] for r in results} == {"ok", "CertificateError"}
        else:
            assert all(r[0] == "ok" for r in results)

    @pytest.mark.parametrize("nudge", [0, -1, 1])
    def test_image_on_the_cone_edge(self, mink3, nudge):
        """Bitwise pin: v_angle at the smallest angle whose cos^2 holds every image under the last
        term (one ulp either side): that term fails just below it."""
        seq = boost_sequence(3, 0.5, 24)
        u_angle = np.deg2rad(5.0)
        edge = _edge_angle(mink3, seq, u_angle, 2000)
        v_angle = float(np.nextafter(edge, np.inf * nudge)) if nudge else edge
        args = (mink3, seq, u_angle, v_angle, 2000)
        got = _outcome(lambda: north_south_certificate(*args))
        assert got == _outcome(lambda: _loop_north_south(*args))
        assert got[0] == ("CertificateError" if nudge < 0 else "ok")
